package coloring

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sim"
)

func TestLogStar2(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}, {1 << 62, 5},
	}
	for _, tc := range cases {
		if got := LogStar2(tc.x); got != tc.want {
			t.Errorf("LogStar2(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestPrimes(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 29, 97}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("IsPrime(%d) = false", p)
		}
	}
	composites := []int{0, 1, 4, 9, 15, 91}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("IsPrime(%d) = true", c)
		}
	}
	if NextPrime(4) != 5 || NextPrime(5) != 7 || NextPrime(24) != 29 {
		t.Error("NextPrime wrong")
	}
}

func TestPaletteScheduleShrinksToConstant(t *testing.T) {
	steps, fix, err := PaletteSchedule(2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no reduction steps for 63-bit IDs")
	}
	// The schedule must be strictly decreasing and end at a constant
	// (independent of n) palette.
	prev := steps[0].m
	for _, s := range steps[1:] {
		if s.m >= prev {
			t.Fatalf("palette not shrinking: %d -> %d", prev, s.m)
		}
		prev = s.m
	}
	if fix > 100 {
		t.Fatalf("fixpoint palette %d too large", fix)
	}
	// log* flavor: the number of steps is tiny.
	if len(steps) > 10 {
		t.Fatalf("schedule has %d steps, want O(log* n) ~ <= 10", len(steps))
	}
}

func TestReducerRoundsMatchesSchedule(t *testing.T) {
	r, err := NewReducer(12345, 2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds() <= 0 || r.Rounds() > 60 {
		t.Fatalf("Rounds() = %d, want small positive", r.Rounds())
	}
}

func runColoring(t *testing.T, tr *graph.Tree, delta int, seed uint64) *sim.Result {
	t.Helper()
	res, err := sim.Run(tr, LinialAlgorithm{Delta: delta}, sim.Config{
		IDs: sim.DefaultIDs(tr.N(), seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func colorsOf(res *sim.Result) []int64 {
	out := make([]int64, len(res.Outputs))
	for i, o := range res.Outputs {
		out[i] = o.(int64)
	}
	return out
}

func TestLinialColorsPathWith3Colors(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 1000} {
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		res := runColoring(t, tr, 2, uint64(n))
		colors := colorsOf(res)
		for v, c := range colors {
			if c < 0 || c > 2 {
				t.Fatalf("n=%d: node %d color %d outside {0,1,2}", n, v, c)
			}
		}
		if ok, u, v := VerifyProperColoring(tr, colors); !ok {
			t.Fatalf("n=%d: edge {%d,%d} monochromatic", n, u, v)
		}
	}
}

func TestLinialWorstCaseRoundsAreLogStarish(t *testing.T) {
	// Round count must be essentially flat in n (O(log* n) + O(Δ²)).
	var r100, r100k int
	for _, n := range []int{100, 100000} {
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		res := runColoring(t, tr, 2, 99)
		if n == 100 {
			r100 = res.TotalRounds
		} else {
			r100k = res.TotalRounds
		}
	}
	if r100k > r100+5 {
		t.Fatalf("rounds grew from %d (n=100) to %d (n=100000); not log*-like", r100, r100k)
	}
	if r100k > 80 {
		t.Fatalf("rounds = %d, want < 80", r100k)
	}
}

func TestLinialColorsTreesWithDeltaPlus1(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		// Random tree with degree cap 5.
		n := 50 + rng.Intn(200)
		b := graph.NewBuilder(n)
		b.AddNode()
		deg := make([]int, n)
		for v := 1; v < n; v++ {
			b.AddNode()
			for {
				u := rng.Intn(v)
				if deg[u] < 4 {
					if err := b.AddEdge(v, u); err != nil {
						t.Fatal(err)
					}
					deg[u]++
					deg[v]++
					break
				}
			}
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := runColoring(t, tr, 5, uint64(trial+1))
		colors := colorsOf(res)
		for _, c := range colors {
			if c < 0 || c > 5 {
				t.Fatalf("color %d outside {0..5}", c)
			}
		}
		if ok, u, v := VerifyProperColoring(tr, colors); !ok {
			t.Fatalf("trial %d: edge {%d,%d} monochromatic", trial, u, v)
		}
	}
}

func TestQuickLinialProperOnRandomPathsAndSeeds(t *testing.T) {
	f := func(seed uint64, sz uint16) bool {
		n := 2 + int(sz)%500
		tr, err := graph.BuildPath(n)
		if err != nil {
			return false
		}
		res, err := sim.Run(tr, LinialAlgorithm{Delta: 2}, sim.Config{
			IDs: sim.DefaultIDs(n, seed|1),
		})
		if err != nil {
			return false
		}
		ok, _, _ := VerifyProperColoring(tr, colorsOf(res))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoColorPathProper(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 50, 501} {
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, TwoColorPathAlgorithm{}, sim.Config{
			IDs: sim.DefaultIDs(n, uint64(n)*3+1),
		})
		if err != nil {
			t.Fatal(err)
		}
		colors := colorsOf(res)
		for _, c := range colors {
			if c != 0 && c != 1 {
				t.Fatalf("n=%d: non-binary color %d", n, c)
			}
		}
		if ok, u, v := VerifyProperColoring(tr, colors); !ok {
			t.Fatalf("n=%d: edge {%d,%d} monochromatic", n, u, v)
		}
	}
}

func TestTwoColorPathIsLinearNodeAveraged(t *testing.T) {
	// Corollary 60 regime: node-averaged complexity of 2-coloring a path is
	// Θ(n). Check the ratio avg/n stays in a constant band as n grows.
	ratios := make([]float64, 0, 3)
	for _, n := range []int{200, 400, 800} {
		tr, err := graph.BuildPath(n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(tr, TwoColorPathAlgorithm{}, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, res.NodeAveraged()/float64(n))
	}
	for _, r := range ratios {
		// Every node waits max(dL,dR) >= n/2; averaged over the path the sum
		// of max distances is 3n²/4, so the ratio is about 0.75.
		if r < 0.5 || r > 1.1 {
			t.Fatalf("node-averaged/n = %v, want within [0.5, 1.1]", r)
		}
	}
}

func TestReducerMaskedNeighbors(t *testing.T) {
	// Two adjacent nodes reduce in lockstep with a third port masked (-1).
	r1, err := NewReducer(100, 2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewReducer(200, 2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	for !r1.Done() || !r2.Done() {
		c1, c2 := r1.Color(), r2.Color()
		if err := r1.Advance([]int64{c2, -1}); err != nil {
			t.Fatal(err)
		}
		if err := r2.Advance([]int64{c1, -1}); err != nil {
			t.Fatal(err)
		}
	}
	if r1.Color() == r2.Color() {
		t.Fatalf("adjacent nodes share final color %d", r1.Color())
	}
	if r1.Color() > 2 || r2.Color() > 2 {
		t.Fatalf("final colors (%d,%d) exceed 2", r1.Color(), r2.Color())
	}
}

func TestReducerRejectsImproperInput(t *testing.T) {
	r, err := NewReducer(100, 2, IDSpace63)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance([]int64{100}); err == nil {
		t.Fatal("want error for identical neighbor color")
	}
}

// TestReduceOnceFirstUncoveredPoint checks reduceOnce's choice against the
// definition: the new color is the point (x, p_color(x)) with the smallest x
// that no neighbor's polynomial covers. Δ = 40 outgrows the stack
// coefficient buffer, so the heap fallback is checked too.
func TestReduceOnceFirstUncoveredPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, delta := range []int{2, 5, 40} {
		steps, _, err := PaletteSchedule(delta, IDSpace63)
		if err != nil {
			t.Fatal(err)
		}
		step := steps[0]
		if heap := (delta+1)*(step.d+1) > maxStackCoeffs; heap != (delta == 40) {
			t.Fatalf("delta %d: heap fallback %v, want %v", delta, heap, delta == 40)
		}
		poly := func(c int64) []int64 { return appendCoeffs(nil, c, step.d, step.q) }
		for trial := 0; trial < 20; trial++ {
			color := rng.Int63n(step.m)
			nbrs := make([]int64, delta)
			for i := range nbrs {
				for nbrs[i] = color; nbrs[i] == color; {
					nbrs[i] = rng.Int63n(step.m)
				}
			}
			nc, err := reduceOnce(color, nbrs, step, delta)
			if err != nil {
				t.Fatal(err)
			}
			x, y := nc/step.q, nc%step.q
			if got := polyEval(poly(color), x, step.q); got != y {
				t.Fatalf("delta %d: point (%d,%d) is not on the node's polynomial (%d)", delta, x, y, got)
			}
			for xi := int64(0); xi <= x; xi++ {
				own := polyEval(poly(color), xi, step.q)
				covered := false
				for _, c := range nbrs {
					covered = covered || polyEval(poly(c), xi, step.q) == own
				}
				if covered == (xi == x) {
					t.Fatalf("delta %d: x=%d covered=%v, but reduceOnce chose x=%d", delta, xi, covered, x)
				}
			}
		}
	}
}

// TestSharedScheduleConcurrent builds reducers for several degree bounds
// from many goroutines at once: each must see exactly the schedule
// PaletteSchedule computes, whichever goroutine filled the shared table.
func TestSharedScheduleConcurrent(t *testing.T) {
	deltas := []int{1, 2, 3, 5, 8}
	errs := make(chan error, 8*len(deltas))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, d := range deltas {
				r, err := NewReducer(uint64(g+1), d, IDSpace63)
				if err != nil {
					errs <- err
					return
				}
				want, fix, _ := PaletteSchedule(d, IDSpace63)
				if !slices.Equal(r.schedule, want) || r.greedyC != int(fix)-1 {
					errs <- fmt.Errorf("delta %d: shared schedule differs from PaletteSchedule", d)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
