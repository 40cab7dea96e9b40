package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/exp"
)

// goldenMain recomputes the golden output digests of perfbench/expect.json
// in process, one per digest set and seed class, and checks that
// BENCHMARK.json lists exactly the metrics the benchmark reports.
func goldenMain(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("golden takes no arguments")
	}
	if err := checkBenchmarkJSON(); err != nil {
		return err
	}
	raw, err := os.ReadFile(expectPath)
	if err != nil {
		return err
	}
	var ef expectFile
	if err := json.Unmarshal(raw, &ef); err != nil {
		return err
	}
	ctx := context.Background()
	batch := func(names []string, cfg exp.RunConfig) (string, error) {
		exps, err := lookupAll(names)
		if err != nil {
			return "", err
		}
		res, err := exp.RunBatch(ctx, exps, exp.BatchOptions{Jobs: 2, Config: cfg})
		exp.InstanceCache().Reset()
		if err != nil {
			return "", err
		}
		h := sha256.New()
		for _, r := range res {
			b, err := exp.CanonicalJSON(r)
			if err != nil {
				return "", err
			}
			h.Write(b)
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	}
	ef.Digests = map[string][]string{}
	for class := 0; class < ef.SeedClasses; class++ {
		seed := uint64(class)
		d, err := batch(simExps, exp.RunConfig{Preset: exp.PresetStress, Seed: seed})
		if err != nil {
			return err
		}
		ef.Digests["sim"] = append(ef.Digests["sim"], d)
		if d, err = batch(analyticExps, exp.RunConfig{Preset: exp.PresetStandard, Seed: seed}); err != nil {
			return err
		}
		ef.Digests["analytic"] = append(ef.Digests["analytic"], d)
		var bodies [][]byte
		for _, k := range warmKeys(class) {
			e, ok := exp.Lookup(k.name)
			if !ok {
				return fmt.Errorf("experiment %q is not registered", k.name)
			}
			res, err := e.Run(ctx, exp.RunConfig{Preset: exp.PresetQuick, Seed: k.seed})
			if err != nil {
				return err
			}
			b, err := exp.CanonicalJSON(res)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
		ef.Digests["expd-mixed"] = append(ef.Digests["expd-mixed"], warmDigest(bodies))
		fmt.Fprintf(os.Stderr, "class %d done\n", class)
	}
	out, err := json.MarshalIndent(ef, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectPath, append(out, '\n'), 0o644)
}

// benchmarkJSON is the subset of BENCHMARK.json the benchmark reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(path string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &b, nil
}

// checkBenchmarkJSON fails when BENCHMARK.json and the benchmark disagree
// on workloads or per-layer metrics.
func checkBenchmarkJSON() error {
	b, err := loadBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			return fmt.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		return fmt.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			return fmt.Errorf("BENCHMARK.json per_layer[%d] is %+v, want %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
	return nil
}
