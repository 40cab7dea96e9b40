package main

// The expd-mixed workload: a real expd process, with a fresh store
// directory per run and otherwise default flags, serving two connections
// from this process:
//
//   - a closed-loop client requesting cold results (a fresh seed each time,
//     round robin over coldExps at the quick preset), so every request
//     computes and writes the store;
//   - an open-loop reader at readerRate requests per second replaying keys
//     already stored, each timed from when it was due.
//
// Set-up pre-populates the warm keys and, with them, expd's instance cache,
// because a long-running service has both.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/inst"
	"repro/internal/serve"
)

var coldExps = []string{"twocoloring-gap", "hierarchical35-k2", "weightaug-k2"}

const (
	warmSeedsPerExp = 4
	readerRate      = 200 // warm requests per second
)

type reqKey struct {
	name string
	seed uint64
}

// warmKeys are the keys set-up stores, a pure function of the seed class.
func warmKeys(class int) []reqKey {
	var keys []reqKey
	for _, n := range coldExps {
		for j := 0; j < warmSeedsPerExp; j++ {
			keys = append(keys, reqKey{n, uint64(1000*(class+1) + j)})
		}
	}
	return keys
}

// coldKey is the i-th cold request of a run: seeds never collide with warm
// keys or with earlier cold requests of the run.
func coldKey(class, i int) reqKey {
	return reqKey{coldExps[i%len(coldExps)], uint64(1_000_000*(class+1) + i)}
}

func (k reqKey) path() string {
	return fmt.Sprintf("/v1/experiments/%s?preset=quick&seed=%d", k.name, k.seed)
}

// expdProc is a running expd.
type expdProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startExpd(ctx context.Context, dir string) (*expdProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "expd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(buildDir, "expd"), "-addr", addr, "-store", filepath.Join(dir, "store"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// expd dies with the benchmark even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start expd: %w", err)
	}
	p := &expdProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			return nil, fmt.Errorf("expd exited before serving: %v (see %s)", err, logf.Name())
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, errors.New("expd did not become healthy")
		}
	}
}

// stop drains expd with SIGINT and waits for it to exit, killing it if the
// drain takes too long.
func (p *expdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// newClient returns a client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get fetches one result and checks status and the store header.
func get(ctx context.Context, c *http.Client, url, wantStore string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	if got := resp.Header.Get("X-Expd-Store"); got != wantStore {
		return nil, fmt.Errorf("%s: served from store %q, want %q", url, got, wantStore)
	}
	return body, nil
}

// expdSetup starts expd on a fresh store and stores the warm keys. It
// returns the CPU time set-up took, expd's and this process's together.
func expdSetup(ctx context.Context, dir string, keys []reqKey) (*expdProc, [][]byte, time.Duration, error) {
	c0 := selfCPU()
	p, err := startExpd(ctx, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		b, err := get(ctx, c, p.base+k.path(), "miss")
		if err != nil {
			p.stop()
			return nil, nil, 0, fmt.Errorf("populate warm key: %w", err)
		}
		bodies[i] = b
	}
	served, err := procCPU(p.cmd.Process.Pid)
	if err != nil {
		p.stop()
		return nil, nil, 0, err
	}
	return p, bodies, selfCPU() - c0 + served, nil
}

// loadResult is one measured phase of mixed load.
type loadResult struct {
	coldMS, cycleMS, warmMS, lateMS []float64
	// coldCPU and cycleCPU are expd's CPU ms over each cold request and
	// over each round-robin cycle of them.
	coldCPU, cycleCPU []float64
	coldBodies        [][]byte
	coldDone          int
	elapsed           time.Duration
}

// mixedLoad runs the two connections for the given time. next is the index
// of the first cold request.
func mixedLoad(ctx context.Context, p *expdProc, class, next int, keys []reqKey, bodies [][]byte,
	seconds float64, rng *rand.Rand, tr *tracer, o *outcome) *loadResult {
	lr := &loadResult{}
	var mu sync.Mutex // guards o
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	order := rng.Perm(len(keys))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // closed-loop cold client
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		pid := p.cmd.Process.Pid
		var cycle, cycleCPU float64
		for i := next; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
			k := coldKey(class, i)
			id := tr.begin("http.cold", 0)
			c0, err0 := procCPU(pid)
			t0 := time.Now()
			body, err := get(ctx, c, p.base+k.path(), "miss")
			d := ms(time.Since(t0))
			c1, err1 := procCPU(pid)
			tr.end(id)
			mu.Lock()
			o.attempted++
			if err == nil {
				err = checkResult(body, k)
			}
			if err == nil {
				err = errors.Join(err0, err1)
			}
			if err != nil {
				o.fail(1, "cold request: %v", err)
			}
			mu.Unlock()
			cpu := ms(c1 - c0)
			lr.coldMS = append(lr.coldMS, d)
			lr.coldCPU = append(lr.coldCPU, cpu)
			lr.coldBodies = append(lr.coldBodies, body)
			lr.coldDone++
			cycle += d
			cycleCPU += cpu
			if (i-next)%len(coldExps) == len(coldExps)-1 {
				lr.cycleMS = append(lr.cycleMS, cycle)
				lr.cycleCPU = append(lr.cycleCPU, cycleCPU)
				cycle, cycleCPU = 0, 0
			}
		}
	}()
	go func() { // open-loop warm reader
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		interval := time.Second / readerRate
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(deadline) || ctx.Err() != nil {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			j := order[i%len(order)]
			id := tr.begin("http.warm", 0)
			body, err := get(ctx, c, p.base+keys[j].path(), "hit")
			tr.end(id)
			lr.warmMS = append(lr.warmMS, ms(time.Since(due)))
			lr.lateMS = append(lr.lateMS, ms(sent.Sub(due)))
			mu.Lock()
			o.attempted++
			if err == nil && !bytes.Equal(body, bodies[j]) {
				err = fmt.Errorf("%s: warm body differs from the bytes its cold request returned", keys[j].path())
			}
			if err != nil {
				o.fail(1, "warm request: %v", err)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	lr.elapsed = time.Since(start)
	return lr
}

// checkResult verifies a cold body is the canonical result of its key.
func checkResult(body []byte, k reqKey) error {
	var r exp.Result
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: %w", k.path(), err)
	}
	if r.Name != k.name || r.Seed != k.seed || r.Preset != exp.PresetQuick || len(r.Tables) == 0 {
		return fmt.Errorf("%s: body is %s/%s/seed %d", k.path(), r.Name, r.Preset, r.Seed)
	}
	return nil
}

// statsz is the subset of expd's /statsz this benchmark reads.
type statsz struct {
	Singleflight struct {
		Joined uint64 `json:"joined"`
	} `json:"singleflight"`
	Admission struct {
		Rejected uint64 `json:"rejected"`
	} `json:"admission"`
	ResultStore   serve.StoreStats `json:"result_store"`
	InstanceCache inst.Stats       `json:"instance_cache"`
}

func readStatsz(p *expdProc) (statsz, error) {
	var s statsz
	resp, err := http.Get(p.base + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// warmDigest is the sha256 of the warm keys' canonical bodies in order.
func warmDigest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func expdWorkload(ctx context.Context, a runArgs) (*outcome, error) {
	o := &outcome{}
	class := a.exp.seedClass(a.seed)
	want := a.exp.digestFor("expd-mixed", class)
	if want == "" {
		return nil, fmt.Errorf("no golden digest for expd-mixed class %d: run `perfbench golden`", class)
	}
	keys := warmKeys(class)
	var (
		setups []float64
		p      *expdProc
		bodies [][]byte
	)
	for i := 0; i < setupRepeats; i++ {
		if p != nil {
			p.stop()
		}
		dir := filepath.Join(a.tmp, fmt.Sprintf("expd-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var (
			d   time.Duration
			err error
		)
		p, bodies, d, err = expdSetup(ctx, dir, keys)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer p.stop()
	o.attempted++
	if got := warmDigest(bodies); got != want {
		o.fail(1, "warm-set digest %s, want %s (seed class %d)", got, want, class)
	}
	rng := rand.New(rand.NewSource(a.seed))

	if !a.trace {
		// expd's peak RSS: the 99th percentile of samples taken every 10 ms
		// during the measured load. A Go service's RSS is a GC sawtooth, and
		// its single highest point varies run to run by a quarter.
		stop := sampleRSS(strconv.Itoa(p.cmd.Process.Pid), 10*time.Millisecond)
		lr := mixedLoad(ctx, p, class, 0, keys, bodies, a.seconds, rng, nil, o)
		rss := stop()
		o.set("setup_s", median(setups), "s")
		o.set("cpu_s", median(lr.cycleCPU)/1000, "s")
		o.set("max_rss_mb", quantile(rss, 0.99), "MB")
		o.set("cold_cpu_p50_ms", quantile(lr.coldCPU, 0.5), "ms")
		o.set("cold_cpu_p90_ms", quantile(lr.coldCPU, 0.9), "ms")
		printWall(len(lr.cycleMS), median(lr.cycleMS)/1000, quantile(lr.coldMS, 0.5), quantile(lr.coldMS, 0.9),
			float64(lr.coldDone)/lr.elapsed.Seconds())
		return o, nil
	}

	// Traced run: untraced half, then a traced half with client spans and
	// /statsz deltas, then in-process replays of the layers on the request
	// path (canonical JSON, result store, analytic executors).
	base := mixedLoad(ctx, p, class, 0, keys, bodies, a.seconds/2, rng, nil, o)
	tr := newTracer()
	s0, err := readStatsz(p)
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	lr := mixedLoad(ctx, p, class, base.coldDone, keys, bodies, a.seconds/2, rng, tr, o)
	s1, err := readStatsz(p)
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	setLayerDefaults(o)
	o.set("trace.overhead_ratio", median(lr.cycleCPU)/median(base.cycleCPU), "ratio")
	o.set("loadgen.late_p99_ms", quantile(base.lateMS, 0.99), "ms")
	o.set("serve.warm_p50_ms", quantile(base.warmMS, 0.5), "ms")
	o.set("serve.warm_p99_ms", quantile(base.warmMS, 0.99), "ms")
	o.set("serve.store_hits", float64(s1.ResultStore.Hits-s0.ResultStore.Hits), "count")
	o.set("serve.store_misses", float64(s1.ResultStore.Misses-s0.ResultStore.Misses), "count")
	o.set("serve.coalesced", float64(s1.Singleflight.Joined-s0.Singleflight.Joined), "count")
	o.set("serve.rejected", float64(s1.Admission.Rejected-s0.Admission.Rejected), "count")
	setInstDelta(o, s0.InstanceCache, s1.InstanceCache)
	if err := replayRequestPath(lr.coldBodies, filepath.Join(a.tmp, "replay-store"), tr, o); err != nil {
		return nil, err
	}
	// The cold requests' executors, replayed in process against a
	// reference batch of the same experiments at the run's seed class; the
	// batch builds the instances and gives the cells the replay must match.
	names := []string{"hierarchical35-k2", "weightaug-k2"}
	exps, err := lookupAll(names)
	if err != nil {
		return nil, err
	}
	cfg := exp.RunConfig{Preset: exp.PresetQuick, Seed: uint64(class)}
	ref, err := exp.RunBatch(ctx, exps, exp.BatchOptions{Jobs: 1, Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("reference batch: %w", err)
	}
	rp := &replayer{tr: tr, o: o, cfgSeed: uint64(class), preset: exp.PresetQuick, results: ref, acc: map[string]float64{}}
	if err := rp.analyticReplay(ctx, names); err != nil {
		return nil, err
	}
	return o, tr.write(filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", a.name, a.seed)))
}

// replayRequestPath re-renders each cold body through exp.CanonicalJSON
// (which must reproduce the served bytes) and writes and reads it through a
// private serve.Store, timing both layers on the request path's own data.
func replayRequestPath(bodies [][]byte, dir string, tr *tracer, o *outcome) error {
	store, err := serve.NewStore(dir)
	if err != nil {
		return err
	}
	var canonMS, nbytes float64
	var puts, gets []float64
	var stored []string
	for _, body := range bodies {
		var r exp.Result
		if err := json.Unmarshal(body, &r); err != nil {
			continue // already booked as a failed cold request
		}
		t0 := time.Now()
		raw, err := exp.CanonicalJSON(&r)
		t1 := time.Now()
		tr.add("exp.canonical", 0, t0, t1)
		canonMS += ms(t1.Sub(t0))
		nbytes += float64(len(raw))
		o.attempted++
		if err != nil || !bytes.Equal(raw, body) {
			o.fail(1, "served body of %s is not its canonical JSON", exp.ResultKey(&r))
		}
		key := exp.ResultKey(&r)
		t0 = time.Now()
		_, err = store.Put(key, &r)
		t1 = time.Now()
		tr.add("serve.store_put", 0, t0, t1)
		if err != nil {
			return fmt.Errorf("store put: %w", err)
		}
		puts = append(puts, ms(t1.Sub(t0)))
		stored = append(stored, key)
	}
	for i := 0; i < 1000 && len(stored) > 0; i++ {
		t0 := time.Now()
		_, ok, err := store.Get(stored[i%len(stored)])
		t1 := time.Now()
		if err != nil || !ok {
			return fmt.Errorf("store get %s: ok=%v err=%v", stored[i%len(stored)], ok, err)
		}
		gets = append(gets, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	o.set("exp.canonical_ms", canonMS, "ms")
	o.set("exp.canonical_bytes", nbytes, "bytes")
	o.set("serve.store_put_ms", median(puts), "ms")
	o.set("serve.store_get_us", median(gets), "us")
	return nil
}
