package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer keeps one workload's spans of the traced run in memory;
// writeSpans saves them once the run ends. Span IDs start at 1 within a
// trace, and parent 0 marks a root. A nil tracer records nothing, so
// untraced code paths can share the traced ones.
type tracer struct {
	name   string
	origin time.Time
	mu     sync.Mutex
	spans  []spanRec
}

// spanRec is one recorded span: a named interval around one call the
// benchmark made into a layer. Times are nanoseconds since the tracer
// started.
type spanRec struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(name string) *tracer { return &tracer{name: name, origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Trace: t.name, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// mark records a span that the caller timed.
func (t *tracer) mark(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Trace: t.name, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

// selfTimes returns, per span name, every span's self time in
// milliseconds: its duration minus the durations of its children. That is
// the time spent in the span itself only where the children run one after
// another, as under every op span; a campaign span's runs overlap, and its
// self time is not reported.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID])/1e6)
	}
	return out
}

// durations lists the durations of the named spans in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// childTime sums, over the spans with the given name, their own durations
// and their children's, in milliseconds.
func (t *tracer) childTime(name string) (children, wall float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	named := make(map[int]bool)
	for _, s := range t.spans {
		if s.Name == name {
			named[s.ID] = true
			wall += float64(s.End-s.Start) / 1e6
		}
	}
	for _, s := range t.spans {
		if named[s.Parent] {
			children += float64(s.End-s.Start) / 1e6
		}
	}
	return children, wall
}

// coverage is the share of the named spans' wall time that their children
// account for.
func (t *tracer) coverage(name string) float64 {
	children, wall := t.childTime(name)
	return ratio(children, wall)
}

// writeSpans saves the traces' spans as JSON Lines and returns how many it
// wrote.
func writeSpans(path string, traces []*tracer) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, t := range traces {
		t.mu.Lock()
		for _, s := range t.spans {
			if err == nil {
				err = enc.Encode(s)
				n++
			}
		}
		t.mu.Unlock()
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}
