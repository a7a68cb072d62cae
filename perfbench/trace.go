package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, window, the span that
// caused it (0 = none) and the pass it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`

	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans and per-pass counts in memory; write dumps them when
// the run ends. A nil tracer records nothing, which is how untraced passes
// run. Safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string][]float64)}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, start, end time.Time, parent, pass int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Pass: pass, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		start: start, end: end,
	})
	return id
}

// count records one pass's value of a named count. Probes (pass < 0)
// record spans but no counts, so counts describe the workload's passes.
func (t *tracer) count(pass int, name string, v float64) {
	if t == nil || pass < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// durations returns the durations of every span with the given name;
// passOnly leaves out the probes' spans.
func (t *tracer) durations(name string, passOnly bool) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (!passOnly || s.Pass >= 0) {
			out = append(out, s.dur())
		}
	}
	return out
}

// counted returns every pass's value of a named count.
func (t *tracer) counted(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.counts[name]...)
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
