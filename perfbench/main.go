// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It drives the real experiment catalog through its public entry points —
// exp.Lookup + exp.RunBatch for batch work, and a real expd process over
// loopback HTTP for the service — and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload sim-seq --seed 1 --seconds 30 --trace 0
//	perfbench golden                  # recompute perfbench/expect.json digests
//	perfbench compare A B             # A/B verdicts over two sets of saved runs
//	perfbench ab -a DIR -b DIR -out DIR  # interleaved A/B runs of two checkouts
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it reports the per-layer metrics, measured in a traced run that
// records spans around the calls into each layer (see trace.go and
// perfbench/README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/exp"
)

// buildDir holds everything building, running and tracing leaves behind,
// relative to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// The host clock is sampled every clockEvery for the whole run, each time
// over clockSteps steps of clockNS (about 1.6 ms, under 1% of one CPU).
// refClockNS is the reference clock end-to-end CPU times are scaled to,
// close to the 2-vCPU host the benchmark was written on.
const (
	clockEvery = 250 * time.Millisecond
	clockSteps = 1_000_000
	refClockNS = 1.6
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run produces before it is printed.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail books n failed operations and says why on standard error.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// workload measures one set of inputs the benchmark runs; runArgs.trace
// selects the per-layer run.
type workload func(ctx context.Context, a runArgs) (*outcome, error)

// runArgs are the benchmark's command-line inputs.
type runArgs struct {
	name    string
	seed    int64
	seconds float64
	trace   bool
	exp     *expectFile
	tmp     string // per-run scratch directory under buildDir
}

var workloads = map[string]workload{
	"sim-seq":    batchWorkload(simSeq),
	"analytic":   batchWorkload(analytic),
	"expd-mixed": expdWorkload,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "initprobe":
			// Spawned by set-up to time process start and package init of
			// the whole stack (catalog registration included).
			if len(exp.List()) == 0 {
				os.Exit(1)
			}
			return
		case "worker":
			if err := exp.RunWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench worker:", err)
				os.Exit(1)
			}
			return
		case "golden":
			exitOn(goldenMain(os.Args[2:]))
			return
		case "compare":
			exitOn(compareMain(os.Args[2:]))
			return
		case "ab":
			exitOn(abMain(os.Args[2:]))
			return
		}
	}
	exitOn(runMain(os.Args[1:]))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 0, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	ef, err := loadExpect()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	a := runArgs{name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, exp: ef, tmp: tmp}

	st := stampNow(*seed)
	st.Workload = *name
	st.Trace = *trace
	raw, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", raw)

	// SIGINT and SIGTERM cancel the run, so every process it started is
	// stopped before it exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	steal0, total0 := cpuSteal()
	stopClock := sampleEvery(clockEvery, func() float64 { return clockNS(clockSteps) })
	out, err := w(ctx, a)
	if err == nil {
		err = ctx.Err() // a run cut short by a signal or the time limit has no result
	}
	clocks := stopClock()
	steal1, total1 := cpuSteal()
	if err != nil {
		return err
	}
	if len(clocks) == 0 || total1 <= total0 {
		return errors.New("no host clock or CPU-time sample")
	}
	clock := median(clocks)
	steal := float64(steal1-steal0) / float64(total1-total0)
	// The host's clock and steal share over the run, beside the stamp.
	fmt.Printf("host {\"steal_share\":%.4f,\"clock_ns\":%.4f,\"clock_samples\":%d}\n", steal, clock, len(clocks))
	if !a.trace {
		// The end-to-end times are CPU times at the reference clock, so
		// that the same work reads the same in a minute when the shared
		// host's clock runs slower (see README.md).
		for n, m := range out.metrics {
			if m.Unit == "s" || m.Unit == "ms" {
				m.Value *= refClockNS / clock
				out.metrics[n] = m
			}
		}
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Printf("%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	rep := report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	if rep.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	raw, err = json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// expectFile is perfbench/expect.json: the golden output digests plus the
// documented layer predictions (which end-to-end metric each layer's
// metrics should move, on which workload, and where they should not).
type expectFile struct {
	// SeedClasses is the number of distinct experiment seeds a run maps its
	// --seed onto; Digests holds one sha256 per class.
	SeedClasses int                 `json:"seed_classes"`
	Digests     map[string][]string `json:"digests"`
	Predictions json.RawMessage     `json:"predictions"`
}

const expectPath = "perfbench/expect.json"

func loadExpect() (*expectFile, error) {
	raw, err := os.ReadFile(expectPath)
	if err != nil {
		return nil, fmt.Errorf("read expected digests: %w", err)
	}
	var ef expectFile
	if err := json.Unmarshal(raw, &ef); err != nil {
		return nil, fmt.Errorf("parse %s: %w", expectPath, err)
	}
	if ef.SeedClasses < 1 {
		return nil, fmt.Errorf("%s: seed_classes must be positive", expectPath)
	}
	return &ef, nil
}

// seedClass maps the benchmark seed onto one of the seed classes whose
// output digests expect.json records. Class 0 runs every experiment at its
// catalog default seed (RunConfig.Seed 0).
func (ef *expectFile) seedClass(seed int64) int {
	k := int64(ef.SeedClasses)
	return int(((seed % k) + k) % k)
}

// digestFor returns the golden digest of a digest set at a seed class, or
// "" when none is recorded yet.
func (ef *expectFile) digestFor(set string, class int) string {
	d := ef.Digests[set]
	if class < len(d) {
		return d[class]
	}
	return ""
}

func selfPath() (string, error) {
	p, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Abs(p)
}
