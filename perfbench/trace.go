package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Parent is the index of
// the enclosing span in the same trace (-1 for a root); ID ties together
// the spans of one tick or one request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// tracer keeps spans in memory for the length of a run; write dumps them
// when the run is over. A nil *tracer records nothing, which is how the
// untraced run calls the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// at converts a wall-clock instant into trace time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// record appends a finished span and returns its index (-1 on nil).
func (t *tracer) record(name string, id int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent, ID: id})
	return len(t.spans) - 1
}

// open appends a span whose end is not known yet, so that children can
// name it as their parent; close fills in the end.
func (t *tracer) open(name string, id int64, parent int, start time.Time) int {
	return t.record(name, id, parent, start, start)
}

func (t *tracer) close(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.at(end)
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName groups spans by name.
func byName(spans []span) map[string][]span {
	out := make(map[string][]span)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// children returns, per span index, the intervals of its direct children.
func children(spans []span) map[int][]interval {
	out := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s.interval())
		}
	}
	return out
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
