package main

// Tracing for the per-layer run. Spans are recorded by the benchmark's own
// files around the calls it makes into each layer's public functions (the
// program itself carries no instrumentation), kept in memory, and written
// out as JSON when the run ends. A nil *tracer records nothing, so the
// untraced measurement pays no tracing cost.

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already measured interval as a closed span.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// totals sums span durations by name (busy time, ms).
func (t *tracer) totals() map[string]float64 {
	out := map[string]float64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End >= 0 {
			out[s.Name] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// selfTimes sums, by name, each span's duration minus the part of its
// interval covered by its children (ms).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write saves the spans and their per-name totals to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	doc := struct {
		Totals map[string]float64 `json:"total_ms"`
		Self   map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{t.totals(), t.selfTimes(), nil}
	t.mu.Lock()
	doc.Spans = append([]span(nil), t.spans...)
	t.mu.Unlock()
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
