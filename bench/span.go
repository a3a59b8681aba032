package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented). Parent is the ID of the
// span that caused it (-1 for the root); spans of one request share Req.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same driver code with
// tracing off.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNs: now, EndNs: -1})
	t.mu.Unlock()
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// add records a span whose bounds were stamped elsewhere (on the tracer's
// clock), for calls whose start and end are observed on different
// goroutines.
func (t *tracer) add(name string, parent int, req, startNs, endNs int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req, StartNs: startNs, EndNs: endNs})
	t.mu.Unlock()
}

// write dumps the spans as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotals is the per-name roll-up of a trace.
type spanTotals struct {
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes rolls spans up by name. A span's self time is its duration minus
// the part of its interval that its child spans cover: overlapping children
// (concurrent waits under one window) are merged first, and a child is
// clipped to its parent's bounds, so self time is never negative.
func selfTimes(spans []span) map[string]spanTotals {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.EndNs >= s.StartNs {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			continue // never closed
		}
		dur := s.EndNs - s.StartNs
		tot := out[s.Name]
		tot.Count++
		tot.TotalNs += dur
		tot.SelfNs += dur - covered(children[s.ID], s.StartNs, s.EndNs)
		out[s.Name] = tot
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	at := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}
