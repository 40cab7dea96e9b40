package main

// Per-layer replays for the traced run. After the traced batch, the
// benchmark calls each layer's public functions directly on the same
// instances and seeds the catalog derives (instances come from the shared
// exp.InstanceCache, seeds from exp.PointSeed), timing each call. Replays
// are checked against the batch: sim step counts against its Result.Steps,
// analytic points against its instance builds and table cells, so a replay
// that drifted from the catalog fails the run instead of reporting numbers
// for other inputs.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/coloring"
	"repro/internal/dfree"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/inst"
	"repro/internal/labeling"
	"repro/internal/landscape"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/weighted"
)

type replayer struct {
	tr      *tracer
	o       *outcome
	self    string // this binary, for the transport's pipe workers
	cfgSeed uint64 // RunConfig.Seed of the run (0 = experiment defaults)
	preset  string
	// results are the traced batch's results, in experiment order.
	results []*exp.Result
	// acc sums per-layer busy times (ms) and counts before they are set.
	acc map[string]float64
}

func (r *replayer) addMS(name string, t0, t1 time.Time) {
	r.acc[name] += ms(t1.Sub(t0))
	r.tr.add(name, 0, t0, t1)
}

// flush reports every accumulated layer time.
func (r *replayer) flush() {
	for name, v := range r.acc {
		r.o.set(name, v, "ms")
	}
}

// baseSeed resolves an experiment's run seed the way Experiment.Run does.
func (r *replayer) baseSeed(e *exp.Experiment) uint64 {
	if r.cfgSeed != 0 {
		return r.cfgSeed
	}
	return e.DefaultSeed
}

// simInstance is one simulated point of a sim workload.
type simInstance struct {
	label string // algorithm family, for the per-algorithm metrics
	tree  *graph.Tree
	ids   []uint64
	alg   sim.Algorithm
	// verify checks the simulator's outputs.
	verify func(outputs []any) error
}

// simInstances enumerates the sim-seq workload's points: the Linial
// ensembles (Galton-Watson n=3000 c=3, ladder n=4000) and the two-colouring
// paths, with trees and IDs derived as the drivers derive them.
func (r *replayer) simInstances() ([]simInstance, error) {
	cache := exp.InstanceCache()
	var out []simInstance
	for _, name := range simExps {
		e, ok := exp.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", name)
		}
		base := r.baseSeed(e)
		for _, v := range e.Presets[r.preset] {
			seed := exp.PointSeed(base, v)
			var (
				tr  *graph.Tree
				err error
			)
			switch name {
			case "ensemble-gw-linial":
				tr, err = cache.GaltonWatson(3000, 3, seed)
			case "ensemble-ladder-linial":
				tr, err = cache.Ladder(4000, seed)
			case "twocoloring-gap":
				tr, err = cache.Path(v)
			}
			if err != nil {
				return nil, err
			}
			si := simInstance{tree: tr, ids: sim.DefaultIDs(tr.N(), seed)}
			if name == "twocoloring-gap" {
				si.label = "twocolor_path"
				si.alg = coloring.TwoColorPathAlgorithm{}
				si.verify = func(outs []any) error { return verifyColoring(tr, outs, 2) }
			} else {
				si.label = "linial_gw"
				if name == "ensemble-ladder-linial" {
					si.label = "linial_ladder"
				}
				delta := max(tr.MaxDegree(), 1)
				si.alg = coloring.LinialAlgorithm{Delta: delta}
				si.verify = func(outs []any) error { return verifyColoring(tr, outs, 0) }
			}
			out = append(out, si)
		}
	}
	return out, nil
}

// verifyColoring checks that outputs form a proper colouring of tr; with
// palette > 0 every colour must also lie in [0, palette).
func verifyColoring(tr *graph.Tree, outs []any, palette int64) error {
	colors := make([]int64, len(outs))
	for v, o := range outs {
		c, ok := o.(int64)
		if !ok {
			return fmt.Errorf("node %d output is %T, not a colour", v, o)
		}
		if palette > 0 && (c < 0 || c >= palette) {
			return fmt.Errorf("node %d colour %d outside [0,%d)", v, c, palette)
		}
		colors[v] = c
	}
	if ok, u, v := coloring.VerifyProperColoring(tr, colors); !ok {
		return fmt.Errorf("improper colouring on edge {%d,%d}", u, v)
	}
	return nil
}

type backend int

const (
	backendSeq backend = iota
	backendPar
	backendShard
)

func (b backend) options(ids []uint64) []sim.Option {
	opts := []sim.Option{sim.WithIDs(ids)}
	switch b {
	case backendPar:
		opts = append(opts, sim.WithParallelism(2))
	case backendShard:
		opts = append(opts, sim.WithShards(2), sim.WithShardLayout("subtree"))
	}
	return opts
}

// timedAlg wraps a catalog algorithm so every NewMachine and Machine.Step
// call is timed; used only on the sequential backend. With clockOnly set it
// times an empty interval before each step instead of the step itself: the
// clock's own share of every timed interval, measured in place.
type timedAlg struct {
	inner         sim.Algorithm
	clockOnly     bool
	stepNS, newNS int64
}

func (a *timedAlg) Name() string { return a.inner.Name() }

func (a *timedAlg) NewMachine(info sim.NodeInfo) sim.Machine {
	t0 := time.Now()
	m := a.inner.NewMachine(info)
	a.newNS += time.Since(t0).Nanoseconds()
	return &timedMachine{m: m, a: a}
}

type timedMachine struct {
	m sim.Machine
	a *timedAlg
}

func (t *timedMachine) Step(round int, recv []any) ([]any, bool) {
	if t.a.clockOnly {
		t0 := time.Now()
		t.a.stepNS += time.Since(t0).Nanoseconds()
		return t.m.Step(round, recv)
	}
	t0 := time.Now()
	send, done := t.m.Step(round, recv)
	t.a.stepNS += time.Since(t0).Nanoseconds()
	return send, done
}

func (t *timedMachine) Output() any { return t.m.Output() }

// engineRun runs one instance under a span and returns the result with its
// wall time and heap allocation deltas.
func (r *replayer) engineRun(span string, si simInstance, alg sim.Algorithm, b backend) (*sim.Result, time.Duration, uint64, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := sim.NewEngine(b.options(si.ids)...).Run(si.tree, alg)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	r.tr.add(span, 0, t0, t1)
	r.o.attempted++
	return res, t1.Sub(t0), m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, err
}

// simReplay replays the sim-seq workload's points. The sequential replay gives
// sim.run_ms, steps, rounds and allocations, verifies every output and
// gives the per-algorithm numbers; each point is then replayed on the
// parallel pool (sim.par.*, against the sequential replay as the speedup
// base) and on two subtree shards (graph.Partition, sim.shard.*). A wrapped
// replay gives the per-step timing, and the hierarchical generic algorithm
// runs as a reference point.
func (r *replayer) simReplay(ctx context.Context) error {
	insts, err := r.simInstances()
	if err != nil {
		return err
	}
	var seqNS, steps, rounds, mallocs, bytes, boundary, crossed int64
	var parMS, shardMS float64
	perNS := map[string]float64{}
	perSteps := map[string]float64{}
	perAllocs := map[string]float64{}
	for _, si := range insts {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, d, nm, nb, err := r.engineRun("sim.run", si, si.alg, backendSeq)
		if err != nil {
			r.o.fail(1, "replay %s: %v", si.label, err)
			continue
		}
		seqNS += d.Nanoseconds()
		steps += res.Steps
		rounds += int64(res.TotalRounds)
		mallocs += int64(nm)
		bytes += int64(nb)
		perNS[si.label] += float64(d.Nanoseconds())
		perSteps[si.label] += float64(res.Steps)
		perAllocs[si.label] += float64(nm)
		t0 := time.Now()
		err = si.verify(res.Outputs)
		r.addMS("coloring.verify_ms", t0, time.Now())
		if err != nil {
			r.o.fail(1, "replay %s: %v", si.label, err)
		}

		pres, pd, _, _, err := r.engineRun("sim.par.run", si, si.alg, backendPar)
		if err != nil || pres.Steps != res.Steps {
			r.o.fail(1, "parallel replay %s: %v (steps %d vs %d)", si.label, err, stepsOf(pres), res.Steps)
		} else {
			parMS += ms(pd)
		}

		t0 = time.Now()
		graph.Partition(si.tree, 2)
		r.addMS("graph.partition_ms", t0, time.Now())
		sres, sd, _, _, err := r.engineRun("sim.shard.run", si, si.alg, backendShard)
		if err != nil || sres.Steps != res.Steps {
			r.o.fail(1, "sharded replay %s: %v (steps %d vs %d)", si.label, err, stepsOf(sres), res.Steps)
			continue
		}
		shardMS += ms(sd)
		for _, s := range sres.Shards {
			boundary += int64(s.BoundaryEdges)
			crossed += s.MessagesCrossed
		}
	}
	if batchSteps := r.o.metrics["sim.steps"].Value; float64(steps) != batchSteps {
		r.o.fail(1, "replay performed %d steps, the catalog batch %v: replay inputs drifted", steps, batchSteps)
	}
	r.o.set("sim.run_ms", float64(seqNS)/1e6, "ms")
	r.o.set("sim.rounds", float64(rounds), "count")
	if steps > 0 {
		r.o.set("sim.ns_per_step", float64(seqNS)/float64(steps), "ns")
		r.o.set("sim.allocs_per_step", float64(mallocs)/float64(steps), "count")
		r.o.set("sim.bytes_per_step", float64(bytes)/float64(steps), "bytes")
	}
	for label, ns := range perNS {
		r.o.set("sim.ns_per_step."+label, ns/perSteps[label], "ns")
		r.o.set("sim.allocs_per_step."+label, perAllocs[label]/perSteps[label], "count")
	}
	if parMS > 0 {
		r.o.set("sim.par.run_ms", parMS, "ms")
		r.o.set("sim.par.speedup", float64(seqNS)/1e6/parMS, "ratio")
	}
	// Each boundary edge appears in both incident shards' statistics.
	r.o.set("sim.shard.run_ms", shardMS, "ms")
	r.o.set("sim.shard.boundary_edges", float64(boundary/2), "count")
	r.o.set("sim.shard.messages_crossed", float64(crossed), "count")

	// Step self time: the wrapped replay minus a replay timing only the
	// clock, so the clock's own cost per step cancels.
	var stepNS, clockNS, newNS float64
	for _, si := range insts {
		for _, clockOnly := range []bool{false, true} {
			ta := &timedAlg{inner: si.alg, clockOnly: clockOnly}
			if _, _, _, _, err := r.engineRun("sim.run.timed", si, ta, backendSeq); err != nil {
				r.o.fail(1, "timed replay %s: %v", si.label, err)
			}
			if clockOnly {
				clockNS += float64(ta.stepNS)
			} else {
				stepNS += float64(ta.stepNS)
				newNS += float64(ta.newNS)
			}
		}
	}
	stepMS := math.Max(0, stepNS-clockNS) / 1e6
	newMS := newNS / 1e6
	r.o.set("sim.step_ms", stepMS, "ms")
	r.o.set("sim.newmachine_ms", newMS, "ms")
	r.o.set("sim.overhead_ms", float64(seqNS)/1e6-stepMS-newMS, "ms")
	if err := r.hierGeneric(); err != nil {
		r.o.fail(1, "generic replay: %v", err)
	}
	r.flush()
	return nil
}

func stepsOf(r *sim.Result) int64 {
	if r == nil {
		return -1
	}
	return r.Steps
}

// hierGeneric runs hierarchy.Generic through the engine on the
// hierarchical35-k2 standard instance at T=24 (seeded as the catalog seeds
// that point) and checks its output, for the sim.ns_per_step.hier_generic
// reference number.
func (r *replayer) hierGeneric() error {
	const k, T = 2, 24
	e, ok := exp.Lookup("hierarchical35-k2")
	if !ok {
		return fmt.Errorf("hierarchical35-k2 is not registered")
	}
	seed := exp.PointSeed(r.baseSeed(e), T)
	h, err := exp.InstanceCache().Hierarchical([]int{T, T * T})
	if err != nil {
		return err
	}
	prob := hierarchy.Problem{K: k, Variant: hierarchy.Coloring35}
	sched, err := hierarchy.NewSchedule(hierarchy.Params{Problem: prob, Gammas: []int{T}})
	if err != nil {
		return err
	}
	levels := graph.ComputeLevels(h.Tree, k)
	inputs := make([]any, len(levels))
	for v, l := range levels {
		inputs[v] = l
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := sim.NewEngine(sim.WithIDs(sim.DefaultIDs(h.Tree.N(), seed)), sim.WithInputs(inputs)).
		Run(h.Tree, hierarchy.Generic{Schedule: sched})
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.o.attempted++
	if err != nil {
		return err
	}
	out := make([]hierarchy.Label, len(res.Outputs))
	for v, o := range res.Outputs {
		l, ok := o.(hierarchy.Label)
		if !ok {
			return fmt.Errorf("node %d output is %T, not a label", v, o)
		}
		out[v] = l
	}
	t1 := time.Now()
	err = prob.Verify(h.Tree, levels, out)
	r.addMS("hierarchy.verify_ms", t1, time.Now())
	if err != nil {
		return err
	}
	r.o.set("sim.ns_per_step.hier_generic", float64(d.Nanoseconds())/float64(res.Steps), "ns")
	r.o.set("sim.allocs_per_step.hier_generic", float64(m1.Mallocs-m0.Mallocs)/float64(res.Steps), "count")
	return nil
}

// analyticReplay replays every sweep point of the named analytic
// experiments in the run's preset: instance lookup, executor and verifier,
// each timed. Two checks tie the replay to the traced batch: every instance
// it asks for must already be cached (the batch built it), and each point's
// replayed figure must equal the batch's own table cell.
func (r *replayer) analyticReplay(ctx context.Context, names []string) error {
	cache := exp.InstanceCache()
	before := cache.Stats()
	for i, name := range names {
		e, ok := exp.Lookup(name)
		if !ok {
			return fmt.Errorf("experiment %q is not registered", name)
		}
		base := r.baseSeed(e)
		for j, v := range e.Presets[r.preset] {
			if err := ctx.Err(); err != nil {
				return err
			}
			r.o.attempted++
			col, val, err := r.analyticPoint(cache, name, v, exp.PointSeed(base, v))
			if err == nil {
				err = r.matchCell(i, j, col, val)
			}
			if err != nil {
				r.o.fail(1, "replay %s %d: %v", name, v, err)
			}
		}
	}
	if built := cache.Stats().Builds - before.Builds; built != 0 {
		r.o.fail(int64(built), "replay built %d instance(s) the catalog batch did not build: replay inputs drifted", built)
	}
	r.flush()
	return nil
}

// matchCell checks a replayed point's figure against row j of experiment
// i's table in the traced batch, in the column headed col.
func (r *replayer) matchCell(i, j int, col string, val any) error {
	if i >= len(r.results) || len(r.results[i].Tables) == 0 {
		return fmt.Errorf("no batch table to check the replay against")
	}
	t := r.results[i].Tables[0]
	c := slices.Index(t.Header, col)
	if c < 0 || j >= len(t.Rows) {
		return fmt.Errorf("batch table has no %q cell for point %d", col, j)
	}
	if got, want := measure.FormatCell(val), t.Rows[j][c]; got != want {
		return fmt.Errorf("replayed %s %s, catalog batch %s: replay inputs drifted", col, got, want)
	}
	return nil
}

// analyticPoint mirrors one sweep point of internal/exp's drivers. It
// returns the point's figure and the header of the table column the
// catalog reports it in.
func (r *replayer) analyticPoint(cache *inst.Cache, name string, v int, seed uint64) (string, any, error) {
	timed := func(layer string, f func() error) error {
		t0 := time.Now()
		err := f()
		r.addMS(layer, t0, time.Now())
		return err
	}
	const nodeAvg = "node-avg rounds"
	switch name {
	case "hierarchical35-k2":
		const k = 2
		h, err := cache.Hierarchical([]int{v, v * v})
		if err != nil {
			return "", nil, err
		}
		prob := hierarchy.Problem{K: k, Variant: hierarchy.Coloring35}
		sched, err := hierarchy.NewSchedule(hierarchy.Params{Problem: prob, Gammas: []int{v}})
		if err != nil {
			return "", nil, err
		}
		var levels []int
		timed("graph.levels_ms", func() error { levels = graph.ComputeLevels(h.Tree, k); return nil })
		ids := sim.DefaultIDs(h.Tree.N(), seed)
		var ex *hierarchy.Execution
		if err := timed("hierarchy.analytic_ms", func() (err error) {
			ex, err = hierarchy.RunAnalytic(h.Tree, levels, sched, ids)
			return err
		}); err != nil {
			return "", nil, err
		}
		err = timed("hierarchy.verify_ms", func() error { return prob.Verify(h.Tree, levels, ex.Out) })
		return nodeAvg, ex.NodeAveraged(), err
	case "weighted25-d5", "weighted35-d7":
		p, lengths, budget, err := weightedParams(name, v)
		if err != nil {
			return "", nil, err
		}
		in, err := cache.Weighted(p, lengths, budget)
		if err != nil {
			return "", nil, err
		}
		ids := sim.DefaultIDs(in.Tree.N(), seed)
		var sol *weighted.Result
		if err := timed("weighted.solve_ms", func() (err error) {
			if name == "weighted25-d5" {
				sol, err = weighted.SolvePoly(in.Tree, in.Inputs, p, ids)
			} else {
				sol, err = weighted.SolveLogStar(in.Tree, in.Inputs, p, ids, v)
			}
			return err
		}); err != nil {
			return "", nil, err
		}
		err = timed("weighted.verify_ms", func() error { return p.Verify(in.Tree, in.Inputs, sol.Out) })
		return nodeAvg, sol.NodeAveraged(), err
	case "weightaug-k2":
		const k, delta = 2, 5
		side := max(2, int(math.Pow(float64(v)/k, 1.0/k)))
		in, err := cache.Aug(k, delta, []int{side, side}, v/k)
		if err != nil {
			return "", nil, err
		}
		ids := sim.DefaultIDs(in.Tree.N(), seed)
		var sol *labeling.AugResult
		if err := timed("labeling.solve_ms", func() (err error) {
			sol, err = labeling.SolveAug(in.Tree, in.Weight, k, ids)
			return err
		}); err != nil {
			return "", nil, err
		}
		err = timed("labeling.verify_ms", func() error { return labeling.VerifyAug(in.Tree, in.Weight, k, sol.Out) })
		return nodeAvg, sol.NodeAveraged(), err
	case "copyfraction-d5":
		const delta, d = 5, 2
		tr, err := cache.Balanced(delta, v)
		if err != nil {
			return "", nil, err
		}
		inputs := make([]dfree.Input, v)
		inputs[0] = dfree.InputA
		var sol *dfree.Solution
		if err := timed("dfree.solve_ms", func() (err error) {
			sol, err = dfree.Solve(tr, inputs, d)
			return err
		}); err != nil {
			return "", nil, err
		}
		err = timed("dfree.verify_ms", func() error { return dfree.Verify(tr, inputs, d, sol.Out) })
		copies := 0
		for _, o := range sol.Out {
			if o == dfree.OutCopy {
				copies++
			}
		}
		return "copies", copies, err
	}
	return "", nil, fmt.Errorf("no replay for %s", name)
}

// weightedParams derives the Definition-25 problem, path lengths and weight
// budget of a weighted25-d5 (target n) or weighted35-d7 (scale T) point.
func weightedParams(name string, v int) (weighted.Problem, []int, int, error) {
	const k = 2
	if name == "weighted25-d5" {
		p := weighted.Problem{Variant: hierarchy.Coloring25, Delta: 5, D: 2, K: k}
		x, err := landscape.EfficiencyX(5, 2)
		if err != nil {
			return p, nil, 0, err
		}
		alphas, err := landscape.Alphas(landscape.RegimePolynomial, x, k)
		if err != nil {
			return p, nil, 0, err
		}
		nPrime := float64(v) / k
		l0 := max(2, int(math.Pow(nPrime, alphas[0])))
		return p, []int{l0, max(2, int(nPrime)/l0)}, v / k, nil
	}
	p := weighted.Problem{Variant: hierarchy.Coloring35, Delta: 7, D: 3, K: k}
	xPrime, err := landscape.EfficiencyXPrime(7, 3)
	if err != nil {
		return p, nil, 0, err
	}
	xPrime = math.Min(xPrime, 1)
	alphas, err := landscape.Alphas(landscape.RegimeLogStar, xPrime, k)
	if err != nil {
		return p, nil, 0, err
	}
	lengths := []int{
		max(2, int(math.Pow(float64(v), alphas[0]))),
		max(4, int(math.Pow(float64(v), alphas[0]*(2-xPrime)))),
	}
	const weightFactor = 3
	return p, lengths, graph.HierarchicalSize(lengths) * weightFactor / k, nil
}
