package coloring

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Reducer is the Linial iterated color-reduction engine for one node, usable
// standalone or as a sub-machine inside composite algorithms.
//
// It starts from the node's unique identifier (a proper "2^63-coloring") and,
// in each communication round, exchanges current colors with its active
// neighbors. Palette sizes shrink according to a deterministic schedule that
// depends only on (Δ, ID-space size), so all nodes operate in lockstep with
// no extra coordination:
//
//  1. Reduction rounds: with palette size m, colors are identified with
//     polynomials of degree ≤ d over F_q (q prime, q > d·Δ, q^{d+1} ≥ m).
//     The set S_c = {(x, p_c(x)) : x ∈ F_q} of a color intersects any other
//     color's set in ≤ d points, so the ≤ Δ neighbor sets cover ≤ dΔ < q
//     points of S_c and the node can pick an uncovered point as its new
//     color in [q²]. Adjacent nodes pick distinct points (the node's point
//     avoids the neighbor's whole set; the neighbor's point lies in it).
//  2. Greedy rounds: once the palette stops shrinking (size m*, a constant
//     depending only on Δ), color classes m*-1, m*-2, ..., Δ+1 recolor one
//     per round to the smallest free color in {0..Δ}.
//
// Total rounds: O(log* n) + O(Δ²). The final palette is {0..Δ}: 3 colors on
// paths.
type Reducer struct {
	delta int
	// schedule is shared by every reducer with this (Δ, ID space) and is
	// never modified.
	schedule []paletteStep
	phase    int // index into schedule (reduction), then greedy countdown
	greedyC  int // current color class being eliminated; < 0 when finished
	color    int64
	done     bool
}

type paletteStep struct {
	m int64 // palette size before this step
	d int   // polynomial degree
	q int64 // field size
}

// PaletteSchedule computes the deterministic palette-size schedule for a
// given maximum degree and ID-space size (2^63 by default). The last entry's
// q² is the fixpoint palette size m*.
func PaletteSchedule(delta int, idSpace float64) ([]paletteStep, int64, error) {
	if delta < 1 {
		return nil, 0, fmt.Errorf("coloring: delta %d < 1", delta)
	}
	var steps []paletteStep
	m := idSpace
	mInt := func(x float64) int64 {
		if x > math.MaxInt64/2 {
			return math.MaxInt64 / 2
		}
		return int64(x)
	}
	cur := mInt(m)
	for i := 0; i < 64; i++ {
		d, q, ok := choosePoly(cur, delta)
		if !ok {
			break
		}
		next := q * q
		if next >= cur {
			break // fixpoint reached
		}
		steps = append(steps, paletteStep{m: cur, d: d, q: q})
		cur = next
	}
	return steps, cur, nil
}

// choosePoly picks the smallest degree d (and corresponding prime q > dΔ)
// such that q^{d+1} >= m. It returns ok=false if no progress is possible.
func choosePoly(m int64, delta int) (d int, q int64, ok bool) {
	for d = 1; d <= 64; d++ {
		qi := int64(NextPrime(d * delta))
		// Check qi^{d+1} >= m without overflow.
		pow := int64(1)
		reached := false
		for e := 0; e < d+1; e++ {
			if pow > m/qi+1 {
				reached = true
				break
			}
			pow *= qi
			if pow >= m {
				reached = true
				break
			}
		}
		if reached {
			return d, qi, true
		}
	}
	return 0, 0, false
}

// scheduleKey identifies a palette schedule.
type scheduleKey struct {
	delta   int
	idSpace float64
}

// sharedSchedule is one cached PaletteSchedule result.
type sharedSchedule struct {
	steps []paletteStep
	fix   int64
}

// schedules memoizes PaletteSchedule, a pure function, one immutable
// schedule per (Δ, ID space): every node of a run derives the same schedule,
// so reducers share it instead of each recomputing its primes. The key space
// is the degree bounds in use, so the table stays tiny.
var schedules struct {
	sync.Mutex
	m map[scheduleKey]sharedSchedule
}

// cachedSchedule returns the shared PaletteSchedule for (delta, idSpace).
// Callers must not modify the returned steps.
func cachedSchedule(delta int, idSpace float64) ([]paletteStep, int64, error) {
	key := scheduleKey{delta, idSpace}
	schedules.Lock()
	defer schedules.Unlock()
	if s, ok := schedules.m[key]; ok {
		return s.steps, s.fix, nil
	}
	steps, fix, err := PaletteSchedule(delta, idSpace)
	if err != nil {
		return nil, 0, err
	}
	if schedules.m == nil {
		schedules.m = make(map[scheduleKey]sharedSchedule)
	}
	// Clip so an append by a future caller can never write into the
	// shared backing array.
	steps = slices.Clip(steps)
	schedules.m[key] = sharedSchedule{steps: steps, fix: fix}
	return steps, fix, nil
}

// NewReducer creates a reduction engine seeded with the node's identifier.
// idSpace is the size of the ID space (use float64(1<<63) for 63-bit IDs).
func NewReducer(id uint64, delta int, idSpace float64) (*Reducer, error) {
	r := new(Reducer)
	if err := r.init(id, delta, idSpace); err != nil {
		return nil, err
	}
	return r, nil
}

// init seeds r in place, so a machine can embed its reducer by value.
func (r *Reducer) init(id uint64, delta int, idSpace float64) error {
	steps, fix, err := cachedSchedule(delta, idSpace)
	if err != nil {
		return err
	}
	*r = Reducer{
		delta:    delta,
		schedule: steps,
		greedyC:  int(fix) - 1,
		color:    int64(id),
		done:     len(steps) == 0 && fix <= int64(delta)+1,
	}
	return nil
}

// Color returns the node's current color. After Done() reports true this is
// the final color in {0..Δ}.
func (r *Reducer) Color() int64 { return r.color }

// Done reports whether the reduction has finished.
func (r *Reducer) Done() bool { return r.done }

// Rounds returns the total number of communication rounds the schedule
// takes; identical on every node.
func (r *Reducer) Rounds() int {
	greedy := r.greedyC - r.delta // classes m*-1 .. Δ+1, one round each
	if greedy < 0 {
		greedy = 0
	}
	return len(r.schedule) + greedy
}

// Advance performs one lockstep round given the current colors of the active
// neighbors (entries < 0 are ignored: masked ports / non-participants). It
// returns an error only on violated invariants (duplicate neighbor color),
// which would indicate an improper input coloring.
func (r *Reducer) Advance(neighborColors []int64) error {
	if r.done {
		return nil
	}
	if r.phase < len(r.schedule) {
		step := r.schedule[r.phase]
		nc, err := reduceOnce(r.color, neighborColors, step, r.delta)
		if err != nil {
			return err
		}
		r.color = nc
		r.phase++
		if r.phase == len(r.schedule) && r.greedyC <= r.delta {
			r.done = true
		}
		return nil
	}
	// Greedy elimination of color class r.greedyC.
	// The ≤ Δ neighbor colors are scanned directly: the smallest color not
	// among them is at most Δ, so the scan costs O(Δ²) and allocates nothing.
	if r.color == int64(r.greedyC) {
		for c := int64(0); ; c++ {
			if !slices.Contains(neighborColors, c) {
				r.color = c
				break
			}
		}
	}
	r.greedyC--
	if r.greedyC <= r.delta {
		r.done = true
	}
	return nil
}

// maxStackCoeffs bounds the coefficient scratch reduceOnce keeps on the
// stack: (active neighbors + 1)·(d+1) words, which covers Δ ≤ 20 on 63-bit
// identifiers. Larger steps fall back to one heap buffer per call.
const maxStackCoeffs = 256

// reduceOnce applies one polynomial reduction step.
func reduceOnce(color int64, neighbors []int64, step paletteStep, delta int) (int64, error) {
	q, w := step.q, step.d+1
	// Forbidden points: the union of neighbor color sets, restricted to the
	// points we might pick. For each x in F_q our candidate point is
	// (x, p_color(x)); it is covered by neighbor c' iff p_{c'}(x) equals
	// p_color(x). Every polynomial's coefficients are computed once, into
	// consecutive w-word blocks: ours first, then each active neighbor's.
	var stack [maxStackCoeffs]int64
	coeffs := stack[:0]
	if need := (len(neighbors) + 1) * w; need > len(stack) {
		coeffs = make([]int64, 0, need)
	}
	coeffs = appendCoeffs(coeffs, color, step.d, q)
	active := 0
	for _, c := range neighbors {
		if c < 0 {
			continue
		}
		if c == color {
			return 0, fmt.Errorf("coloring: neighbor has identical color %d (improper input coloring)", c)
		}
		coeffs = appendCoeffs(coeffs, c, step.d, q)
		active++
	}
	if active > delta {
		return 0, fmt.Errorf("coloring: %d active neighbors exceeds delta %d", active, delta)
	}
	own, nbrs := coeffs[:w], coeffs[w:]
	for x := int64(0); x < q; x++ {
		y := polyEval(own, x, q)
		covered := false
		for i := 0; i < len(nbrs); i += w {
			if polyEval(nbrs[i:i+w], x, q) == y {
				covered = true
				break
			}
		}
		if !covered {
			return x*q + y, nil
		}
	}
	// Cannot happen: ≤ dΔ < q covered points.
	return 0, fmt.Errorf("coloring: no uncovered point for color %d (q=%d, d=%d)", color, q, step.d)
}

// appendCoeffs appends color written in base q as d+1 coefficients.
func appendCoeffs(dst []int64, color int64, d int, q int64) []int64 {
	for i := 0; i <= d; i++ {
		dst = append(dst, color%q)
		color /= q
	}
	return dst
}

// polyEval evaluates the polynomial at x over F_q (Horner).
func polyEval(coeffs []int64, x, q int64) int64 {
	var acc int64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*x + coeffs[i]) % q
	}
	return acc
}
