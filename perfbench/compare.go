package main

// The A/B comparator. Given two sets of saved runs (each file one run's
// standard output), it prints one row per workload × end-to-end metric with
// each side's median and quartiles, the share of pairs the change (B) wins,
// and a verdict:
//
//   - improved: B wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ by more than A's own quartile spread;
//   - unresolved: A's quartile spread, as a share of its median, is wider
//     than the metric's bound, and not every B run beats every A run;
//   - worse: B's median is worse than A's by more than the bound;
//   - no worse: otherwise.
//
// Runs pair up by (workload, seed). abMain produces such sets by running
// two checkouts alternately, switching which side goes first every pair.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type savedRun struct {
	stamp stamp
	host  struct {
		StealShare float64 `json:"steal_share"`
	}
	report report
}

func loadRuns(dir string) ([]savedRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r savedRun
		var last string
		sc := bufio.NewScanner(strings.NewReader(string(raw)))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Text()
			if s, ok := strings.CutPrefix(line, "stamp "); ok {
				if err := json.Unmarshal([]byte(s), &r.stamp); err != nil {
					return nil, fmt.Errorf("%s: stamp: %w", f, err)
				}
			}
			if s, ok := strings.CutPrefix(line, "host "); ok {
				if err := json.Unmarshal([]byte(s), &r.host); err != nil {
					return nil, fmt.Errorf("%s: host: %w", f, err)
				}
			}
			if strings.TrimSpace(line) != "" {
				last = line
			}
		}
		if err := json.Unmarshal([]byte(last), &r.report); err != nil || r.stamp.Workload == "" {
			return nil, fmt.Errorf("%s: not a benchmark run output", f)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare DIR_A DIR_B (from the repository root)")
	}
	b, err := loadBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	c, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	printComparison(b, a, c)
	return nil
}

// sideStats summarizes one side's values.
type sideStats struct{ q1, med, q3 float64 }

func summarize(xs []float64) sideStats {
	return sideStats{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// verdict applies the rule in the file comment. lower says which direction
// is better.
func verdict(a, b []float64, bound float64, lower bool) (wins int, pairs int, v string) {
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	sa, sb := summarize(a), summarize(b)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	spread := sa.q3 - sa.q1
	worseBy := (sb.med - sa.med) / sa.med
	if !lower {
		worseBy = -worseBy
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(sb.med, sa.med) && math.Abs(sb.med-sa.med) > spread:
		return wins, pairs, "improved"
	case sa.med != 0 && spread/math.Abs(sa.med) > bound && !allBetter:
		return wins, pairs, "unresolved"
	case worseBy > bound:
		return wins, pairs, "worse"
	}
	return wins, pairs, "no worse"
}

func printComparison(b *benchmarkJSON, a, c []savedRun) {
	// values[workload][metric] in seed order, untraced runs only.
	collect := func(runs []savedRun) map[string]map[string][]float64 {
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].stamp.Seed < runs[j].stamp.Seed })
		out := map[string]map[string][]float64{}
		for _, r := range runs {
			if r.stamp.Trace != 0 {
				continue
			}
			w := out[r.stamp.Workload]
			if w == nil {
				w = map[string][]float64{}
				out[r.stamp.Workload] = w
			}
			for name, m := range r.report.Metrics {
				w[name] = append(w[name], m.Value)
			}
			w["failed"] = append(w["failed"], float64(r.report.Failed))
		}
		return out
	}
	va, vc := collect(a), collect(c)
	ha, hb := printStamps("A", a), printStamps("B", c)
	if math.Abs(hb.calib-ha.calib)/ha.calib > 0.05 || math.Abs(hb.steal-ha.steal) > 0.05 {
		fmt.Printf("warning: the sides ran at different host speeds (median cpu_calib_ns A %.3f, B %.3f; median steal share A %.3f, B %.3f); verdicts may reflect the host, not the code\n",
			ha.calib, hb.calib, ha.steal, hb.steal)
	}
	fmt.Printf("%-11s %-12s %30s %30s %8s %6s %s\n", "workload", "metric", "A median [q1,q3]", "B median [q1,q3]", "delta", "wins", "verdict")
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			xa, xc := va[w.Name][m.Name], vc[w.Name][m.Name]
			if len(xa) == 0 || len(xc) == 0 {
				fmt.Printf("%-11s %-12s missing runs (A %d, B %d)\n", w.Name, m.Name, len(xa), len(xc))
				continue
			}
			sa, sc := summarize(xa), summarize(xc)
			wins, pairs, v := verdict(xa, xc, m.Bound, m.Better == "lower")
			fmt.Printf("%-11s %-12s %30s %30s %+7.1f%% %2d/%-3d %s\n", w.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g,%.4g] %s", sa.med, sa.q1, sa.q3, m.Unit),
				fmt.Sprintf("%.4g [%.4g,%.4g] %s", sc.med, sc.q1, sc.q3, m.Unit),
				100*(sc.med-sa.med)/sa.med, wins, pairs, v)
		}
		if fa, fc := sum(va[w.Name]["failed"]), sum(vc[w.Name]["failed"]); fa != 0 || fc != 0 {
			fmt.Printf("%-11s failed operations: A %.0f, B %.0f — a gain does not count when B fails more\n", w.Name, fa, fc)
		}
	}
}

// hostSpeed is one side's median calibration loop time and steal share.
type hostSpeed struct{ calib, steal float64 }

// printStamps summarizes where one side's runs were measured, so runs from
// different hosts, CPU modes or toolchains are not compared unawares.
func printStamps(side string, runs []savedRun) hostSpeed {
	set := func(get func(stamp) string) string {
		seen := map[string]bool{}
		var out []string
		for _, r := range runs {
			if v := get(r.stamp); !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return strings.Join(out, ", ")
	}
	var calib, steal []float64
	for _, r := range runs {
		calib = append(calib, r.stamp.CalibNS)
		steal = append(steal, r.host.StealShare)
	}
	fmt.Printf("%s: %d runs; commit %s; %s; %s; nproc %s, GOMAXPROCS %s; cpu_calib_ns %.3f..%.3f (median %.3f); steal share %.3f..%.3f (median %.3f)\n",
		side, len(runs), set(func(s stamp) string { return s.Commit }), set(func(s stamp) string { return s.GoVersion }),
		set(func(s stamp) string { return s.CPUModel }), set(func(s stamp) string { return fmt.Sprint(s.NProc) }),
		set(func(s stamp) string { return fmt.Sprint(s.GOMAXPROCS) }), quantile(calib, 0), quantile(calib, 1), median(calib),
		quantile(steal, 0), quantile(steal, 1), median(steal))
	return hostSpeed{median(calib), median(steal)}
}

// abMain runs two checkouts alternately, every workload of B's
// BENCHMARK.json at its run_seconds, and compares them. Pair i runs seed i
// on both sides.
func abMain(args []string) error {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	dirA := fs.String("a", "", "parent checkout (repository root)")
	dirB := fs.String("b", "", "changed checkout (repository root)")
	pairs := fs.Int("pairs", 10, "pairs per workload")
	out := fs.String("out", "", "directory receiving a/ and b/ run outputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dirA == "" || *dirB == "" || *out == "" {
		return fmt.Errorf("usage: perfbench ab -a DIR -b DIR -out DIR [-pairs N]")
	}
	raw, err := os.ReadFile(filepath.Join(*dirB, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var def struct {
		Command    []string `json:"command"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return err
	}
	b, err := loadBenchmarkJSON(filepath.Join(*dirB, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	for _, side := range []string{"a", "b"} {
		if err := os.MkdirAll(filepath.Join(*out, side), 0o755); err != nil {
			return err
		}
	}
	runOne := func(side, dir, w string, seed int) error {
		argv := append(append([]string(nil), def.Command...),
			"--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(def.RunSeconds), "--trace", "0")
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		o, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s %s seed %d: %w", side, w, seed, err)
		}
		return os.WriteFile(filepath.Join(*out, side, fmt.Sprintf("%s-%d.txt", w, seed)), o, 0o644)
	}
	for _, w := range b.Workloads {
		for seed := 1; seed <= *pairs; seed++ {
			first, second := [2]string{"a", *dirA}, [2]string{"b", *dirB}
			if seed%2 == 0 {
				first, second = second, first
			}
			for _, s := range [][2]string{first, second} {
				if err := runOne(s[0], s[1], w.Name, seed); err != nil {
					return err
				}
			}
			fmt.Fprintf(os.Stderr, "ab: %s pair %d/%d done\n", w.Name, seed, *pairs)
		}
	}
	a, err := loadRuns(filepath.Join(*out, "a"))
	if err != nil {
		return err
	}
	c, err := loadRuns(filepath.Join(*out, "b"))
	if err != nil {
		return err
	}
	printComparison(b, a, c)
	return nil
}
