package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exp"
	"repro/internal/inst"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics lists every per-layer metric in the order BENCHMARK.json
// lists them. Every traced run reports all of them; a layer a workload does
// not exercise reads 0 (for instance sim.run_ms on analytic, whose batch
// performs no engine steps).
var layerMetrics = func() []layerMetric {
	ms := func(n string) layerMetric { return layerMetric{n, "ms", "lower"} }
	count := func(n string) layerMetric { return layerMetric{n, "count", "lower"} }
	l := []layerMetric{
		{"trace.overhead_ratio", "ratio", "lower"},
		ms("sim.step_ms"), ms("sim.newmachine_ms"), ms("sim.run_ms"), ms("sim.overhead_ms"),
		{"sim.ns_per_step", "ns", "lower"}, count("sim.allocs_per_step"), {"sim.bytes_per_step", "bytes", "lower"},
		count("sim.steps"), count("sim.rounds"),
	}
	for _, alg := range []string{"linial_gw", "linial_ladder", "twocolor_path", "hier_generic"} {
		l = append(l, layerMetric{"sim.ns_per_step." + alg, "ns", "lower"}, count("sim.allocs_per_step."+alg))
	}
	l = append(l,
		ms("sim.par.run_ms"), layerMetric{"sim.par.speedup", "ratio", "higher"},
		ms("sim.shard.run_ms"), count("sim.shard.boundary_edges"), count("sim.shard.messages_crossed"),
		ms("graph.partition_ms"), ms("graph.levels_ms"),
		ms("inst.build_ms"))
	for _, k := range inst.Kinds() {
		l = append(l, ms("inst.build_ms."+string(k)))
	}
	l = append(l,
		count("inst.builds"), layerMetric{"inst.hits", "count", "higher"},
		layerMetric{"inst.hit_ratio", "ratio", "higher"}, count("inst.evictions"),
		ms("hierarchy.analytic_ms"), ms("weighted.solve_ms"), ms("labeling.solve_ms"), ms("dfree.solve_ms"),
		ms("hierarchy.verify_ms"), ms("weighted.verify_ms"), ms("labeling.verify_ms"), ms("dfree.verify_ms"),
		ms("coloring.verify_ms"),
		ms("exp.plan_ms"), count("exp.tasks"), ms("exp.task_ms"), ms("exp.task_wait_ms"), ms("exp.assemble_ms"),
		ms("exp.canonical_ms"), layerMetric{"exp.canonical_bytes", "bytes", "lower"},
		layerMetric{"serve.store_get_us", "us", "lower"}, ms("serve.store_put_ms"),
		layerMetric{"serve.store_hits", "count", "higher"}, count("serve.store_misses"),
		count("serve.coalesced"), count("serve.rejected"), ms("serve.warm_p50_ms"), ms("serve.warm_p99_ms"),
		ms("transport.session_ms"), layerMetric{"transport.task_rtt_us", "us", "lower"}, count("transport.retries"),
		ms("loadgen.late_p99_ms"),
	)
	return l
}()

func setLayerDefaults(o *outcome) {
	for _, m := range layerMetrics {
		o.set(m.name, 0, m.unit)
	}
}

// setInstDelta reports the instance-cache counters accumulated between two
// Stats snapshots.
func setInstDelta(o *outcome, before, after inst.Stats) {
	builds := float64(after.Builds - before.Builds)
	hits := float64(after.Hits - before.Hits)
	o.set("inst.build_ms", ms(after.BuildTime-before.BuildTime), "ms")
	for _, k := range inst.Kinds() {
		o.set("inst.build_ms."+string(k), ms(after.Kinds[k].BuildTime-before.Kinds[k].BuildTime), "ms")
	}
	o.set("inst.builds", builds, "count")
	o.set("inst.hits", hits, "count")
	if builds+hits > 0 {
		o.set("inst.hit_ratio", hits/(hits+float64(after.Misses-before.Misses)), "ratio")
	}
	o.set("inst.evictions", float64(after.Evictions-before.Evictions), "count")
}

// transportBench measures the worker transport with trivial tasks
// (landscape-figures, a table computed in microseconds) over two pipe
// workers running this binary's worker subcommand: a two-task batch gives
// the session cost (spawn, handshake, one task each, stats, teardown); the
// extra time of a batch with 64 more tasks gives the per-task round trip.
func transportBench(ctx context.Context, self string, o *outcome) error {
	e, ok := exp.Lookup("landscape-figures")
	if !ok {
		return fmt.Errorf("landscape-figures is not registered")
	}
	const workers, extra = 2, 64
	var sessions int
	batch := func(tasks int) (time.Duration, error) {
		exps := make([]*exp.Experiment, tasks)
		for i := range exps {
			exps[i] = e
		}
		t0 := time.Now()
		_, err := exp.RunBatch(ctx, exps, exp.BatchOptions{
			Workers:       workers,
			WorkerCommand: []string{self, "worker"},
			WorkerRetry:   true,
			OnWorkerStats: func(exp.WorkerStats) { sessions++ },
		})
		o.attempted += int64(tasks)
		if err != nil {
			o.fail(int64(tasks), "transport batch: %v", err)
		}
		return time.Since(t0), err
	}
	var small, large []float64
	for i := 0; i < 3; i++ {
		d, err := batch(workers)
		if err != nil {
			return nil
		}
		small = append(small, ms(d))
		d, err = batch(workers + extra)
		if err != nil {
			return nil
		}
		large = append(large, ms(d))
	}
	o.set("transport.session_ms", median(small), "ms")
	o.set("transport.task_rtt_us", (median(large)-median(small))*1000*workers/extra, "us")
	// Every clean worker exit sends one stats frame; frames beyond one per
	// slot per batch come from respawned (retried) workers.
	o.set("transport.retries", float64(max(0, sessions-6*workers)), "count")
	return nil
}
