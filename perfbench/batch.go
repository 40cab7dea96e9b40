package main

// The batch workloads: a fixed list of catalog experiments run through
// exp.Lookup + exp.RunBatch exactly as cmd/experiments runs them, with a
// cold instance cache on every batch.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/inst"
)

type batchSpec struct {
	exps   []string
	preset string
	jobs   int
	// digests names the golden digest set in expect.json.
	digests string
	// replay runs the traced run's per-layer replays.
	replay func(ctx context.Context, r *replayer) error
}

var (
	simExps      = []string{"ensemble-gw-linial", "ensemble-ladder-linial", "twocoloring-gap"}
	analyticExps = []string{"hierarchical35-k2", "weighted25-d5", "weightaug-k2", "copyfraction-d5", "weighted35-d7"}

	simSeq = batchSpec{exps: simExps, preset: exp.PresetStress, jobs: 1, digests: "sim",
		replay: func(ctx context.Context, r *replayer) error { return r.simReplay(ctx) }}
	analytic = batchSpec{exps: analyticExps, preset: exp.PresetStandard, jobs: 2, digests: "analytic",
		replay: func(ctx context.Context, r *replayer) error {
			if err := r.analyticReplay(ctx, analyticExps); err != nil {
				return err
			}
			// The worker transport is measured once, here: it does not
			// depend on the workload.
			return transportBench(ctx, r.self, r.o)
		}}
)

func lookupAll(names []string) ([]*exp.Experiment, error) {
	out := make([]*exp.Experiment, len(names))
	for i, n := range names {
		e, ok := exp.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", n)
		}
		out[i] = e
	}
	return out, nil
}

// batchRun is one measured batch.
type batchRun struct {
	wall     time.Duration
	cpu      time.Duration // CPU time of this process over the batch
	taskMS   []float64
	readyMS  []float64 // per experiment: batch start until its result was assembled
	readyCPU []float64 // the same in CPU ms of this process
	rssMB    float64   // peak RSS during the batch
	waitMS   float64   // Σ task start − batch start
	taskErrs int
	results  []*exp.Result
	canon    [][]byte
	digest   string
	planMS   float64
	asmMS    float64
	canonMS  float64
}

// batchStat is what the measured loop keeps of a batch.
type batchStat struct {
	wall, cpu, rssMB  float64 // seconds, seconds, MB
	readyMS, readyCPU []float64
	tasks             int
}

func (br *batchRun) stat() batchStat {
	return batchStat{wall: br.wall.Seconds(), cpu: br.cpu.Seconds(), rssMB: br.rssMB,
		readyMS: br.readyMS, readyCPU: br.readyCPU, tasks: len(br.taskMS)}
}

// runBatch executes one batch on a cold instance cache. It wraps every
// task of each looked-up experiment's plan so task busy and wait times are
// measured from outside the scheduler; with a tracer it also records spans.
func runBatch(ctx context.Context, exps []*exp.Experiment, opts exp.BatchOptions, tr *tracer) (*batchRun, error) {
	exp.InstanceCache().Reset()
	// Start every batch from a returned heap and a reset peak-RSS mark, so
	// each batch's peak is its own.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	br := &batchRun{}
	var mu sync.Mutex
	root := tr.begin("batch", 0)
	start, cpu0 := time.Now(), selfCPU()
	wrapped := make([]*exp.Experiment, len(exps))
	for i, e := range exps {
		t0 := time.Now()
		plan, err := e.Plan(opts.Config)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: plan: %w", e.Name, err)
		}
		br.planMS += ms(t1.Sub(t0))
		tr.add("exp.plan", root, t0, t1)
		for j := range plan.Tasks {
			run := plan.Tasks[j].Run
			plan.Tasks[j].Run = func(ctx context.Context) (any, error) {
				s := time.Now()
				out, err := run(ctx)
				f := time.Now()
				tr.add("exp.task", root, s, f)
				mu.Lock()
				br.taskMS = append(br.taskMS, ms(f.Sub(s)))
				br.waitMS += ms(s.Sub(start))
				if err != nil {
					br.taskErrs++
				}
				mu.Unlock()
				return out, err
			}
		}
		asm := plan.Assemble
		plan.Assemble = func(outs []any) (*exp.Result, error) {
			s := time.Now()
			res, err := asm(outs)
			f, c := time.Now(), selfCPU()
			tr.add("exp.assemble", root, s, f)
			mu.Lock()
			br.asmMS += ms(f.Sub(s))
			br.readyMS = append(br.readyMS, ms(f.Sub(start)))
			br.readyCPU = append(br.readyCPU, ms(c-cpu0))
			mu.Unlock()
			return res, err
		}
		w := *e
		w.Plan = func(exp.RunConfig) (*exp.TaskPlan, error) { return plan, nil }
		wrapped[i] = &w
	}
	res, err := exp.RunBatch(ctx, wrapped, opts)
	if err != nil {
		if br.taskErrs == 0 {
			br.taskErrs = 1
		}
		tr.end(root)
		fmt.Fprintln(os.Stderr, "perfbench: batch failed:", err)
		br.wall, br.cpu = time.Since(start), selfCPU()-cpu0
		return br, nil
	}
	cs := tr.begin("exp.canonical", root)
	c0 := time.Now()
	h := sha256.New()
	for _, r := range res {
		raw, err := exp.CanonicalJSON(r)
		if err != nil {
			return nil, fmt.Errorf("canonical JSON: %w", err)
		}
		br.canon = append(br.canon, raw)
		h.Write(raw)
	}
	br.digest = hex.EncodeToString(h.Sum(nil))
	br.canonMS = ms(time.Since(c0))
	tr.end(cs)
	br.wall, br.cpu = time.Since(start), selfCPU()-cpu0
	br.rssMB = peakRSSMB("self")
	tr.end(root)
	br.results = res
	return br, nil
}

// batchSetup is what a run does before its first measured batch: start a
// process of the full stack (package init, catalog registration), resolve
// the experiments, derive their plans, and run the same experiments once at
// the quick preset so code and heap are warm; then drop the instances that
// warm-up built. It returns the CPU time set-up took, the probe process's
// included.
func batchSetup(ctx context.Context, spec batchSpec, self string) (time.Duration, []*exp.Experiment, error) {
	c0 := selfCPU()
	probe := exec.CommandContext(ctx, self, "initprobe")
	if err := probe.Run(); err != nil {
		return 0, nil, fmt.Errorf("init probe: %w", err)
	}
	exps, err := lookupAll(spec.exps)
	if err != nil {
		return 0, nil, err
	}
	cfg := exp.RunConfig{Preset: exp.PresetQuick}
	if _, err := exp.RunBatch(ctx, exps, exp.BatchOptions{Jobs: spec.jobs, Config: cfg}); err != nil {
		return 0, nil, fmt.Errorf("warm-up batch: %w", err)
	}
	exp.InstanceCache().Reset()
	runtime.GC()
	ps := probe.ProcessState
	return selfCPU() - c0 + ps.UserTime() + ps.SystemTime(), exps, nil
}

// setupRepeats is how many times a run sets up; it reports the median.
const setupRepeats = 9

func batchWorkload(spec batchSpec) workload {
	return func(ctx context.Context, a runArgs) (*outcome, error) {
		self, err := selfPath()
		if err != nil {
			return nil, err
		}
		o := &outcome{}
		var setups []float64
		var exps []*exp.Experiment
		for i := 0; i < setupRepeats; i++ {
			d, e, err := batchSetup(ctx, spec, self)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			exps = e
		}
		class := a.exp.seedClass(a.seed)
		cfg := exp.RunConfig{Preset: spec.preset, Seed: uint64(class)}
		opts := exp.BatchOptions{Jobs: spec.jobs, Config: cfg}
		want := a.exp.digestFor(spec.digests, class)
		if want == "" {
			return nil, fmt.Errorf("no golden digest for %s class %d: run `perfbench golden`", spec.digests, class)
		}
		check := func(br *batchRun) {
			o.attempted += int64(len(br.taskMS)) + 1
			if br.taskErrs > 0 {
				o.fail(int64(br.taskErrs), "%d task(s) failed", br.taskErrs)
			}
			if br.digest != want {
				o.fail(1, "canonical digest %s, want %s (seed class %d)", br.digest, want, class)
			}
		}

		// measure runs batches for the given time. It keeps only each
		// batch's figures, so no batch's peak RSS includes the outputs of
		// the batches before it.
		measure := func(seconds float64) ([]batchStat, error) {
			var runs []batchStat
			var walls []float64
			t0 := time.Now()
			for len(runs) == 0 || time.Since(t0).Seconds() < seconds-median(walls)/2 {
				br, err := runBatch(ctx, exps, opts, nil)
				if err == nil {
					err = ctx.Err()
				}
				if err != nil {
					return nil, err
				}
				check(br)
				runs = append(runs, br.stat())
				walls = append(walls, br.wall.Seconds())
				fmt.Fprintf(os.Stderr, "perfbench: batch %d: %.3f s wall, %.3f s CPU\n", len(runs), br.wall.Seconds(), br.cpu.Seconds())
			}
			return runs, nil
		}

		if !a.trace {
			runs, err := measure(a.seconds)
			if err != nil {
				return nil, err
			}
			var walls, cpus, ready, readyCPU, rps, rss []float64
			for _, st := range runs {
				walls = append(walls, st.wall)
				cpus = append(cpus, st.cpu)
				rss = append(rss, st.rssMB)
				ready = append(ready, st.readyMS...)
				readyCPU = append(readyCPU, st.readyCPU...)
				rps = append(rps, float64(st.tasks)/st.wall)
			}
			o.set("setup_s", median(setups), "s")
			o.set("cpu_s", median(cpus), "s")
			o.set("max_rss_mb", median(rss), "MB")
			o.set("cold_cpu_p50_ms", quantile(readyCPU, 0.5), "ms")
			o.set("cold_cpu_p90_ms", quantile(readyCPU, 0.9), "ms")
			printWall(len(runs), median(walls), quantile(ready, 0.5), quantile(ready, 0.9), median(rps))
			return o, nil
		}

		// Traced run: untraced batches first (the overhead baseline), then
		// one traced batch, then the per-layer replays.
		untraced, err := measure(a.seconds / 2)
		if err != nil {
			return nil, err
		}
		var cpus []float64
		for _, st := range untraced {
			cpus = append(cpus, st.cpu)
		}
		tr := newTracer()
		br, err := runBatch(ctx, exps, opts, tr)
		if err != nil {
			return nil, err
		}
		check(br)
		setLayerDefaults(o)
		o.set("trace.overhead_ratio", br.cpu.Seconds()/median(cpus), "ratio")
		o.set("exp.plan_ms", br.planMS, "ms")
		o.set("exp.tasks", float64(len(br.taskMS)), "count")
		o.set("exp.task_ms", sum(br.taskMS), "ms")
		o.set("exp.task_wait_ms", br.waitMS, "ms")
		o.set("exp.assemble_ms", br.asmMS, "ms")
		o.set("exp.canonical_ms", br.canonMS, "ms")
		var nbytes int
		for _, c := range br.canon {
			nbytes += len(c)
		}
		o.set("exp.canonical_bytes", float64(nbytes), "bytes")
		// runBatch resets the cache, counters included, before the batch.
		setInstDelta(o, inst.Stats{}, exp.InstanceCache().Stats())
		var steps int64
		for _, r := range br.results {
			steps += r.Steps
		}
		o.set("sim.steps", float64(steps), "count")

		rp := &replayer{tr: tr, o: o, self: self, cfgSeed: uint64(class), preset: spec.preset,
			results: br.results, acc: map[string]float64{}}
		if err := spec.replay(ctx, rp); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(buildDir, fmt.Sprintf("trace-%s-%s.json", a.name, strconv.FormatInt(a.seed, 10)))); err != nil {
			return nil, err
		}
		return o, nil
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
