package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it started and ended
// (nanoseconds since the process's time origin), the span that caused it
// (0 for none) and the run it belongs to (one round or one request).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// spanHandle is an open span; end closes it.
type spanHandle struct {
	t   *tracer
	idx int
}

// start opens a span under parent (nil for a root).
func (t *tracer) start(name, run string, parent *spanHandle) *spanHandle {
	if t == nil {
		return nil
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := 0
	if parent != nil {
		p = t.spans[parent.idx].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: p, Name: name, Run: run, Start: now})
	return &spanHandle{t: t, idx: len(t.spans) - 1}
}

// end closes the span.
func (h *spanHandle) end() {
	if h == nil {
		return
	}
	now := time.Since(processStart).Nanoseconds()
	h.t.mu.Lock()
	h.t.spans[h.idx].End = now
	h.t.mu.Unlock()
}

// total sums the durations of the closed spans with this name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
