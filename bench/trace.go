package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share Req; Parent is the span that caused this one (0: a root).
// Stage spans replay, after the handler span, the same input under the
// same weight version, so a parent's interval does not contain its
// children's: self time is computed from durations, parent minus
// children, never from overlap.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Workload string `json:"workload"`
	Req      int    `json:"req"`
	City     string `json:"city,omitempty"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the trace began
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer buffers spans in memory; nothing is written until the run ends.
type tracer struct {
	off   bool // timing still happens, nothing is kept (overhead baseline)
	t0    time.Time
	spans []span

	// the request being replayed
	workload string
	req      int
	city     string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) request(workload string, req int, city string) {
	t.workload, t.req, t.city = workload, req, city
}

// do times fn as a span under parent and returns the span's id and
// duration.
func (t *tracer) do(name string, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.add(name, parent, start, end), end.Sub(start)
}

// add records a span timed by the caller and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t.off {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Req: t.req, City: t.city,
		Name: name, StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
	return id
}

// durations returns the durations of every span with the given name
// that keep accepts (nil: all).
func (t *tracer) durations(name string, keep func(span) bool) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s.dur())
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
