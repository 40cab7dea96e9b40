package coloring_test

import (
	"runtime"
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/sim"
)

// catalogRun is one catalog algorithm on one instance, run through the
// sequential engine as the experiments run it.
type catalogRun struct {
	name   string
	tree   *graph.Tree
	alg    sim.Algorithm
	ids    []uint64
	inputs []any
}

func (c catalogRun) run(tb testing.TB) *sim.Result {
	res, err := sim.NewEngine(sim.WithIDs(c.ids), sim.WithInputs(c.inputs)).Run(c.tree, c.alg)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	return res
}

// mallocsPerRun returns the mean heap allocations of one run of c, and the
// run's result.
func (c catalogRun) mallocsPerRun(tb testing.TB) (float64, *sim.Result) {
	var res *sim.Result
	allocs := testing.AllocsPerRun(3, func() { res = c.run(tb) })
	return allocs, res
}

func linialRun(tb testing.TB, name string, tr *graph.Tree, err error) catalogRun {
	if err != nil {
		tb.Fatal(err)
	}
	return catalogRun{
		name: name,
		tree: tr,
		alg:  coloring.LinialAlgorithm{Delta: max(tr.MaxDegree(), 1)},
		ids:  sim.DefaultIDs(tr.N(), 5),
	}
}

func linialGW(tb testing.TB) catalogRun {
	tr, err := graph.BuildGaltonWatson(3000, 3, 11)
	return linialRun(tb, "linial_gw", tr, err)
}

func linialLadder(tb testing.TB) catalogRun {
	tr, err := graph.BuildLadder(4000, 11)
	return linialRun(tb, "linial_ladder", tr, err)
}

func twoColorPath(tb testing.TB, n int) catalogRun {
	tr, err := graph.BuildPath(n)
	if err != nil {
		tb.Fatal(err)
	}
	return catalogRun{name: "twocolor_path", tree: tr, alg: coloring.TwoColorPathAlgorithm{}, ids: sim.DefaultIDs(n, 5)}
}

// hierGeneric is hierarchy.Generic for the 3½-coloring problem with k = 2
// on the hierarchical lower-bound instance of parameter T = 12.
func hierGeneric(tb testing.TB) catalogRun {
	const k, T = 2, 12
	h, err := graph.BuildHierarchical([]int{T, T * T})
	if err != nil {
		tb.Fatal(err)
	}
	sched, err := hierarchy.NewSchedule(hierarchy.Params{
		Problem: hierarchy.Problem{K: k, Variant: hierarchy.Coloring35},
		Gammas:  []int{T},
	})
	if err != nil {
		tb.Fatal(err)
	}
	levels := graph.ComputeLevels(h.Tree, k)
	inputs := make([]any, len(levels))
	for v, l := range levels {
		inputs[v] = l
	}
	return catalogRun{
		name:   "hier_generic",
		tree:   h.Tree,
		alg:    hierarchy.Generic{Schedule: sched},
		ids:    sim.DefaultIDs(h.Tree.N(), 5),
		inputs: inputs,
	}
}

// TestCatalogMachinesAllocationFree pins the recv-as-send contract on the
// real algorithms: machines send through the engine's receive window, so
// allocations track nodes, not machine steps.
func TestCatalogMachinesAllocationFree(t *testing.T) {
	t.Run("twocolor_path", func(t *testing.T) {
		// Steps grow ~n² (each node waits for the far endpoint); a machine
		// allocating per step would add ~0.36M allocations from n = 400 to
		// n = 800. Setup and the once-per-port sends add a few per node.
		short, rs := twoColorPath(t, 400).mallocsPerRun(t)
		long, rl := twoColorPath(t, 800).mallocsPerRun(t)
		perNode := (long - short) / 400
		perStep := (long - short) / float64(rl.Steps-rs.Steps)
		t.Logf("allocs: n=400 %.0f, n=800 %.0f; %.2f per added node, %.4f per added step", short, long, perNode, perStep)
		if perNode > 8 || perStep > 0.01 {
			t.Fatalf("allocations grow by %.2f per node and %.4f per step from n=400 to n=800; want <= 8 and <= 0.01",
				perNode, perStep)
		}
	})
	for _, c := range []catalogRun{linialGW(t), linialLadder(t)} {
		t.Run(c.name, func(t *testing.T) {
			allocs, res := c.mallocsPerRun(t)
			perStep := allocs / float64(res.Steps)
			t.Logf("%.0f allocs over %d steps: %.3f per step", allocs, res.Steps, perStep)
			if perStep > 0.2 {
				t.Fatalf("%.3f allocations per step, want <= 0.2", perStep)
			}
		})
	}
	t.Run("hier_generic", func(t *testing.T) {
		// Generic allocated fresh send slices every round and read 0.70
		// allocations per step on this instance; what remains is per-node
		// setup (machine, per-port state, its phase's reducer).
		allocs, res := hierGeneric(t).mallocsPerRun(t)
		perStep := allocs / float64(res.Steps)
		t.Logf("%.0f allocs over %d steps: %.3f per step", allocs, res.Steps, perStep)
		if perStep > 0.4 {
			t.Fatalf("%.3f allocations per step, want <= 0.4", perStep)
		}
	})
}

// BenchmarkCatalogMachines runs the catalog's simulator-backed algorithms
// through the sequential engine, reporting per machine step (Steps =
// Σ_v (T_v+1)) the time and heap allocations: the real-algorithm
// counterpart of sim's BenchmarkEngine. Run with -benchmem.
func BenchmarkCatalogMachines(b *testing.B) {
	for _, c := range []catalogRun{linialGW(b), linialLadder(b), twoColorPath(b, 1024), hierGeneric(b)} {
		b.Run(c.name, func(b *testing.B) {
			var m0, m1 runtime.MemStats
			var steps int64
			b.ReportAllocs()
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steps += c.run(b).Steps
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(steps), "allocs/step")
		})
	}
}
