package coloring

import (
	"repro/internal/sim"
)

// IDSpace63 is the default identifier-space size used by the palette
// schedule (63-bit identifiers).
const IDSpace63 = float64(1 << 63)

// LinialAlgorithm is a sim.Algorithm computing a proper (Δ+1)-coloring of
// the whole graph in O(log* n) + O(Δ²) rounds. Delta must be an upper bound
// on the maximum degree.
type LinialAlgorithm struct {
	Delta int
}

var _ sim.Algorithm = LinialAlgorithm{}

// Name implements sim.Algorithm.
func (a LinialAlgorithm) Name() string { return "linial-coloring" }

// NewMachine implements sim.Algorithm.
func (a LinialAlgorithm) NewMachine(info sim.NodeInfo) sim.Machine {
	m := &linialMachine{nbr: make([]int64, info.Degree)}
	if err := m.reducer.init(info.ID, a.Delta, IDSpace63); err != nil {
		// Construction can only fail on delta < 1, a static misuse.
		panic(err)
	}
	return m
}

// linialMachine holds everything it needs from setup on: the reducer by
// value and the neighbor-color scratch nbr, sized to the degree. Its
// colour is sent through the recv window, boxed once per step.
type linialMachine struct {
	reducer Reducer
	nbr     []int64
}

// colorMsg carries a node's current color.
type colorMsg struct{ color int64 }

func (m *linialMachine) Step(round int, recv []any) ([]any, bool) {
	if round > 0 {
		for i, msg := range recv {
			m.nbr[i] = -1
			if cm, ok := msg.(colorMsg); ok {
				m.nbr[i] = cm.color
			}
		}
		if err := m.reducer.Advance(m.nbr); err != nil {
			// Invariant violation inside a deterministic lockstep schedule is
			// a programming error, not a runtime condition.
			panic(err)
		}
		if m.reducer.Done() {
			return nil, true
		}
	}
	var msg any = colorMsg{color: m.reducer.Color()}
	for i := range recv {
		recv[i] = msg
	}
	return recv, false
}

func (m *linialMachine) Output() any { return m.reducer.Color() }

// TwoColorPathAlgorithm 2-colors a path graph in Θ(n) worst-case rounds:
// each endpoint floods its identifier and a hop counter; a node terminates
// once it has heard from both endpoints, coloring itself by the parity of
// its distance to the endpoint with the smaller identifier. All nodes agree
// on the orientation, so the coloring is proper; every node needs
// max(d_left, d_right) rounds, so both worst-case and node-averaged cost are
// Θ(n) — the paper's Corollary 60 regime.
type TwoColorPathAlgorithm struct{}

var _ sim.Algorithm = TwoColorPathAlgorithm{}

// Name implements sim.Algorithm.
func (TwoColorPathAlgorithm) Name() string { return "two-color-path" }

// NewMachine implements sim.Algorithm.
func (TwoColorPathAlgorithm) NewMachine(info sim.NodeInfo) sim.Machine {
	return &twoColorMachine{deg: info.Degree, id: info.ID, ports: make([]endpointPort, info.Degree)}
}

// endpointMsg carries an endpoint's ID and the hop distance travelled so
// far.
type endpointMsg struct {
	id   uint64
	dist int
}

// endpointPort is what a node knows about the direction of one port.
type endpointPort struct {
	end   endpointMsg // the endpoint learned from this direction
	known bool        // end is set
	sent  bool        // the opposite endpoint was already forwarded here
}

type twoColorMachine struct {
	deg   int
	id    uint64
	ports []endpointPort
	out   int64
}

// Step floods endpoint announcements. A node sends at most once per port
// over the whole run, so nearly every step returns nil; the rare sends are
// written into the recv window.
func (m *twoColorMachine) Step(round int, recv []any) ([]any, bool) {
	for p, msg := range recv {
		if em, ok := msg.(endpointMsg); ok && !m.ports[p].known {
			m.ports[p].end = em
			m.ports[p].known = true
		}
	}
	clear(recv) // absorbed; from here on it is the send buffer
	switch m.deg {
	case 0:
		m.out = 0
		return nil, true
	case 1:
		// Endpoint: announce self once, then wait for the other endpoint.
		var send []any
		if !m.ports[0].sent {
			recv[0] = endpointMsg{id: m.id, dist: 1}
			send = recv
			m.ports[0].sent = true
		}
		if m.ports[0].known {
			m.out = m.colorFrom(endpointMsg{id: m.id, dist: 0}, m.ports[0].end)
			return send, true
		}
		return send, false
	default: // degree 2 interior node
		var send []any
		for p := 0; p < 2; p++ {
			if other := &m.ports[1-p]; other.known && !m.ports[p].sent {
				recv[p] = endpointMsg{id: other.end.id, dist: other.end.dist + 1}
				m.ports[p].sent = true
				send = recv
			}
		}
		if m.ports[0].known && m.ports[1].known {
			m.out = m.colorFrom(m.ports[0].end, m.ports[1].end)
			return send, true
		}
		return send, false
	}
}

// colorFrom colors by parity of the distance to the smaller-ID endpoint.
func (m *twoColorMachine) colorFrom(a, b endpointMsg) int64 {
	ref := a
	if b.id < a.id {
		ref = b
	}
	return int64(ref.dist % 2)
}

func (m *twoColorMachine) Output() any { return m.out }

// VerifyProperColoring checks that no edge of the graph has equal colors at
// its endpoints. colors[v] is the color of node v.
type edgeLister interface {
	Edges() [][2]int
}

// VerifyProperColoring reports the first monochromatic edge, or ok.
func VerifyProperColoring(g edgeLister, colors []int64) (ok bool, badU, badV int) {
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return false, e[0], e[1]
		}
	}
	return true, -1, -1
}
