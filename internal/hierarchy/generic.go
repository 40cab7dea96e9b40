package hierarchy

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/sim"
)

// Params configures the generic algorithm of Section 4.1.
type Params struct {
	Problem Problem
	// Gammas holds γ_1..γ_{k-1}: the path-length thresholds of phases
	// 1..k-1 (Gammas[i-1] = γ_i). Must all be >= 1. Empty for k = 1.
	Gammas []int
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Problem.Validate(); err != nil {
		return err
	}
	if len(p.Gammas) != p.Problem.K-1 {
		return fmt.Errorf("hierarchy: %d gammas for k=%d (want k-1)", len(p.Gammas), p.Problem.K)
	}
	for i, g := range p.Gammas {
		if g < 1 {
			return fmt.Errorf("hierarchy: γ_%d = %d < 1", i+1, g)
		}
	}
	return nil
}

// Schedule is the global round schedule of the generic algorithm, common
// knowledge to all nodes (it depends only on the parameters):
//
//	round 0:                 level exchange; level-(k+1) nodes output E.
//	phase i (i = 1..k-1):    rounds [Start(i), Start(i)+2γ_i]; level-i nodes
//	                         explore their same-level active path and decide
//	                         (D or a 2-coloring) exactly at Start(i)+2γ_i.
//	                         The following k rounds absorb the E-propagation
//	                         chains before the next phase begins.
//	phase k:                 starts at Start(k); remaining level-k nodes
//	                         2-color (2½, Θ(segment length)) or 3-color (3½,
//	                         Linial, O(log* n)) their active segments.
//
// E-checks run in every round on every active node, so an Exempt output is
// taken at the earliest legal round regardless of phase boundaries.
type Schedule struct {
	params Params
	start  []int // start[i-1] = Start(i)
}

// NewSchedule validates params and precomputes phase starts.
func NewSchedule(params Params) (*Schedule, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	k := params.Problem.K
	start := make([]int, k)
	s := 1
	for i := 1; i < k; i++ {
		start[i-1] = s
		s += 2*params.Gammas[i-1] + k + 1
	}
	start[k-1] = s
	return &Schedule{params: params, start: start}, nil
}

// Start returns the first round of phase i (1-based).
func (s *Schedule) Start(i int) int { return s.start[i-1] }

// DecisionRound returns the round at which level-i (i < k) path nodes decide.
func (s *Schedule) DecisionRound(i int) int {
	return s.start[i-1] + 2*s.params.Gammas[i-1]
}

// Generic is the sim.Algorithm implementing Section 4.1. Each node's input
// must be its Definition-8 level (an int), as computed by
// graph.ComputeLevels; the paper treats the level computation as a constant
// (O(k)-round) preamble.
type Generic struct {
	Schedule *Schedule
}

var _ sim.Algorithm = Generic{}

// Name implements sim.Algorithm.
func (g Generic) Name() string {
	return fmt.Sprintf("generic-%v-k%d", g.Schedule.params.Problem.Variant, g.Schedule.params.Problem.K)
}

// NewMachine implements sim.Algorithm.
func (g Generic) NewMachine(info sim.NodeInfo) sim.Machine {
	level, ok := info.Input.(int)
	if !ok {
		panic(fmt.Sprintf("hierarchy: node input must be its level (int), got %T", info.Input))
	}
	return &genericMachine{
		info:  info,
		sched: g.Schedule,
		level: level,
		nbrs:  make([]neighborState, info.Degree),
	}
}

// Message types used by the generic algorithm.
type (
	levelMsg   struct{ level int }
	segmentMsg struct {
		// closed segment info travelling away from an endpoint: length is
		// the number of nodes on that side including the endpoint, endID is
		// the endpoint's identifier.
		length int
		endID  uint64
	}
	linialMsg struct{ color int64 }
)

// neighborState is what a node has heard from the neighbor on one port.
type neighborState struct {
	level int   // Definition-8 level (0 = not heard yet)
	out   Label // frozen output, once done
	done  bool  // the neighbor has terminated
}

// segmentSide is what an exploring node knows about the direction of one
// active port.
type segmentSide struct {
	info  segmentMsg // closure info from that direction
	known bool       // info is set
	sent  bool       // a closure was already sent on this port
}

type genericMachine struct {
	info  sim.NodeInfo
	sched *Schedule
	level int

	nbrs []neighborState // per port

	// exploration state (used during this node's own phase)
	exploreInit bool
	activePorts []int         // same-level active ports (≤ 2)
	sides       []segmentSide // per active port

	// Linial reducer state (3½ phase k)
	reducer      *coloring.Reducer
	linialColors []int64 // last color heard per port (-1 = unknown/masked)
	linialNbr    []int64 // per active port: the colors handed to the reducer

	out Label
}

func (m *genericMachine) Output() any { return m.out }

func (m *genericMachine) Step(round int, recv []any) ([]any, bool) {
	k := m.sched.params.Problem.K
	if round == 0 {
		var msg any = levelMsg{level: m.level}
		for p := range recv {
			recv[p] = msg
		}
		if m.level == k+1 {
			// Definition 8/9: all level-(k+1) nodes must output E; no
			// adjacency condition, so they terminate immediately.
			m.out = LabelE
			return recv, true
		}
		return recv, false
	}
	m.absorb(recv)

	// E-check (every round): levels 2..k output E as soon as a lower-level
	// neighbor is seen to have output W, B, or E. Level-k nodes must
	// additionally confirm that no lower-level neighbor declined, which
	// requires all lower-level neighbors to have terminated.
	if m.level >= 2 && m.level <= k && m.eligibleForE() {
		m.out = LabelE
		return nil, true
	}

	if m.level < k {
		return m.stepInnerPhase(round, recv)
	}
	return m.stepFinalPhase(round, recv)
}

// absorb folds the received messages into neighbor-tracking state.
func (m *genericMachine) absorb(recv []any) {
	for p, msg := range recv {
		switch v := msg.(type) {
		case levelMsg:
			m.nbrs[p].level = v.level
		case sim.Terminated:
			if lab, ok := v.Output.(Label); ok {
				m.nbrs[p].out = lab
				m.nbrs[p].done = true
			}
		case segmentMsg:
			m.absorbSegment(p, v)
		case linialMsg:
			m.absorbLinial(p, v)
		}
	}
}

func (m *genericMachine) eligibleForE() bool {
	k := m.sched.params.Problem.K
	hasLowerColored := false
	for p := 0; p < m.info.Degree; p++ {
		if m.nbrs[p].level == 0 || m.nbrs[p].level >= m.level {
			continue
		}
		if m.nbrs[p].out.IsBiColor() || m.nbrs[p].out == LabelE {
			hasLowerColored = true
		}
		if m.level == k {
			if !m.nbrs[p].done || m.nbrs[p].out == LabelD {
				return false
			}
		}
	}
	return hasLowerColored
}

// stepInnerPhase runs phases 1..k-1 for level-i nodes (i = m.level < k).
// Like every phase step it sends through recv, which absorb has consumed.
func (m *genericMachine) stepInnerPhase(round int, recv []any) ([]any, bool) {
	i := m.level
	start := m.sched.Start(i)
	decision := m.sched.DecisionRound(i)
	if round < start || round > decision {
		return nil, false
	}
	if round == start {
		m.initExploration()
	}
	send := m.relayClosures(recv)
	if round == decision {
		gamma := m.sched.params.Gammas[i-1]
		m.decidePath(gamma)
		return send, true
	}
	return send, false
}

// initExploration fixes the same-level active ports at phase start; the
// active structure is static during the phase (all other decisions happen at
// earlier phase boundaries).
func (m *genericMachine) initExploration() {
	m.exploreInit = true
	m.activePorts = m.activePorts[:0]
	for p := 0; p < m.info.Degree; p++ {
		if m.nbrs[p].level == m.level && !m.nbrs[p].done {
			m.activePorts = append(m.activePorts, p)
		}
	}
	m.sides = make([]segmentSide, len(m.activePorts))
}

func (m *genericMachine) absorbSegment(port int, msg segmentMsg) {
	for a, p := range m.activePorts {
		if p == port && !m.sides[a].known {
			m.sides[a].info = msg
			m.sides[a].known = true
		}
	}
}

// relayClosures emits, on each active port, the closure information of the
// opposite side as soon as it is known (an absent opposite side means this
// node is an endpoint: it announces itself). It writes into recv, returning
// it if anything was emitted and nil otherwise.
func (m *genericMachine) relayClosures(recv []any) []any {
	if !m.exploreInit {
		return nil
	}
	clear(recv)
	sent := false
	switch len(m.activePorts) {
	case 0:
		// Isolated active node: nothing to send.
	case 1:
		if !m.sides[0].sent {
			recv[m.activePorts[0]] = segmentMsg{length: 1, endID: m.info.ID}
			m.sides[0].sent = true
			sent = true
		}
	case 2:
		for a := 0; a < 2; a++ {
			other := &m.sides[1-a]
			if other.known && !m.sides[a].sent {
				recv[m.activePorts[a]] = segmentMsg{
					length: other.info.length + 1,
					endID:  other.info.endID,
				}
				m.sides[a].sent = true
				sent = true
			}
		}
	}
	if !sent {
		return nil
	}
	return recv
}

// segment returns the node's knowledge of its active path: whether both ends
// are known, the total length, and the distance to the smaller-ID endpoint.
func (m *genericMachine) segment() (closed bool, length, distToSmall int) {
	type side struct {
		len int
		id  uint64
	}
	sides := make([]side, 0, 2)
	for _, sd := range m.sides {
		if !sd.known {
			return false, 0, 0
		}
		sides = append(sides, side{len: sd.info.length, id: sd.info.endID})
	}
	// Implicit own-side closure for endpoints/isolated nodes.
	for len(sides) < 2 {
		sides = append(sides, side{len: 0, id: m.info.ID})
	}
	length = sides[0].len + sides[1].len + 1
	small := sides[0]
	if sides[1].id < small.id {
		small = sides[1]
	}
	return true, length, small.len
}

// decidePath implements the phase-i decision: paths of length >= γ_i output
// Decline; shorter paths output a consistent 2-coloring (parity of the
// distance to the smaller-ID endpoint).
func (m *genericMachine) decidePath(gamma int) {
	closed, length, dist := m.segment()
	if !closed || length >= gamma {
		m.out = LabelD
		return
	}
	if dist%2 == 0 {
		m.out = LabelW
	} else {
		m.out = LabelB
	}
}

// stepFinalPhase runs phase k: the remaining level-k nodes either 2-color
// their segments (2½, by endpoint flooding) or 3-color them (3½, Linial).
func (m *genericMachine) stepFinalPhase(round int, recv []any) ([]any, bool) {
	k := m.sched.params.Problem.K
	start := m.sched.Start(k)
	if round < start {
		return nil, false
	}
	if m.sched.params.Problem.Variant == Coloring25 {
		if round == start {
			m.initExploration()
		}
		send := m.relayClosures(recv)
		if closed, _, dist := m.segment(); closed {
			if dist%2 == 0 {
				m.out = LabelW
			} else {
				m.out = LabelB
			}
			return send, true
		}
		return send, false
	}
	// 3½: Linial 3-coloring on the active segment (Δ = 2), lockstep.
	if round == start {
		m.initExploration()
		r, err := coloring.NewReducer(m.info.ID, 2, coloring.IDSpace63)
		if err != nil {
			panic(err) // static misuse: delta = 2 is always valid
		}
		m.reducer = r
		m.linialColors = make([]int64, m.info.Degree)
		for p := range m.linialColors {
			m.linialColors[p] = -1
		}
		m.linialNbr = make([]int64, len(m.activePorts))
	}
	if round > start {
		for a, p := range m.activePorts {
			m.linialNbr[a] = m.linialColors[p]
		}
		if err := m.reducer.Advance(m.linialNbr); err != nil {
			panic(err) // lockstep invariant violation is a programming error
		}
		if m.reducer.Done() {
			m.out = triColor(m.reducer.Color())
			return nil, true
		}
	}
	clear(recv)
	var msg any = linialMsg{color: m.reducer.Color()}
	for _, p := range m.activePorts {
		recv[p] = msg
	}
	return recv, false
}

func (m *genericMachine) absorbLinial(port int, msg linialMsg) {
	if m.linialColors != nil {
		m.linialColors[port] = msg.color
	}
}

// triColor maps Linial's {0,1,2} palette to the paper's {R,G,Y}.
func triColor(c int64) Label {
	switch c {
	case 0:
		return LabelR
	case 1:
		return LabelG
	default:
		return LabelY
	}
}
