package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// procCPU returns the CPU time a process has used so far, all its threads
// together, read from the kernel's per-process CPU clock (pid 0 is this
// process). The kernel leaves out the time the hypervisor gave this VM's
// CPUs to other guests (steal) and the time spent waiting for a CPU, which
// wall time counts.
func procCPU(pid int) (time.Duration, error) {
	clock := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = uintptr((^pid)<<3 | 2) // the CPU clock of another process
	}
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// threadCPU returns the CPU time the calling OS thread has used so far.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0); e != 0 { // CLOCK_THREAD_CPUTIME_ID
		panic(fmt.Errorf("thread CPU clock: %w", e))
	}
	return time.Duration(ts.Nano())
}

// selfCPU is procCPU of this process, whose clock always exists.
func selfCPU() time.Duration {
	d, err := procCPU(0)
	if err != nil {
		panic(err)
	}
	return d
}

// printWall prints the wall-clock figures a run measured beside its CPU-time
// metrics: what a user waits for, reported but not bounded, because on a
// shared host they move with the neighbours' load (see the host line).
func printWall(samples int, wallS, p50MS, p90MS, rps float64) {
	fmt.Printf("wall {\"samples\":%d,\"wall_s\":%.6g,\"cold_p50_ms\":%.6g,\"cold_p90_ms\":%.6g,\"cold_rps\":%.6g}\n",
		samples, wallS, p50MS, p90MS, rps)
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process.
func peakRSSMB(pid string) float64 { return procStatusMB(pid, "VmHWM:") }

// procStatusMB reads one kB-valued field of /proc/<pid>/status, in MB.
func procStatusMB(pid, field string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// sampleRSS samples a process's resident set size (VmRSS) every interval
// until the returned stop function is called; stop returns the samples in
// MB.
func sampleRSS(pid string, every time.Duration) (stop func() []float64) {
	return sampleEvery(every, func() float64 { return procStatusMB(pid, "VmRSS:") })
}

// sampleEvery calls read every interval until the returned stop function is
// called; stop returns the positive values read.
func sampleEvery(every time.Duration, read func() float64) (stop func() []float64) {
	var samples []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if v := read(); v > 0 {
					samples = append(samples, v)
				}
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// stamp identifies the machine, toolchain and code a run measured, so that
// numbers from different hosts, CPU modes or commits are never compared by
// accident.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	CPUMHz     string  `json:"cpu_mhz"`
	CalibNS    float64 `json:"cpu_calib_ns"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`
}

func stampNow(seed int64) stamp {
	model, mhz := cpuInfo()
	return stamp{
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   model,
		CPUMHz:     mhz,
		CalibNS:    calibrate(),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuInfo() (model, mhz string) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "cpu MHz":
			if mhz == "" {
				mhz = strings.TrimSpace(v)
			}
		}
	}
	return model, mhz
}

// cpuSteal reads the machine-wide stolen and total CPU time (in ticks) from
// /proc/stat. Steal is time a virtual CPU was runnable while the hypervisor
// ran another guest; wall-clock figures taken under a high steal share
// measure the neighbours as much as the code.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

var calibSink uint64

// clockNS times a fixed dependent multiply-add chain of the given length on
// the calling thread's CPU clock and returns nanoseconds per step. Its code
// never changes, so it reads the host, not the program: the clock speed the
// host's CPUs run at this minute. Time the thread does not run never counts.
func clockNS(steps int) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	x := uint64(steps)
	t0 := threadCPU()
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	d := threadCPU() - t0
	calibSink += x
	return float64(d.Nanoseconds()) / float64(steps)
}

// calibrate is the median of five clockNS readings: the host's two
// CPU-performance modes show up as distinct values here.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		runs = append(runs, clockNS(2_000_000))
	}
	return median(runs)
}

// commitID is the git HEAD when the checkout is a repository, otherwise a
// digest of the Go sources and module files, so a run is always tied to the
// code it measured.
func commitID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == buildDir || strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || filepath.Base(p) == "go.mod") {
			raw, err := os.ReadFile(p)
			if err == nil {
				h.Write([]byte(p))
				h.Write(raw)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}
