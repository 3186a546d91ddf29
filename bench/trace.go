package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names. One per layer boundary the benchmark can see from outside
// the program: the driver's steps of an interval, and the control
// plane's decide and plan calls nested under the control round.
const (
	spanInterval = "interval"
	spanDraw     = "workload.draw"
	spanFeed     = "engine.feed"
	spanClose    = "engine.close"
	spanHarvest  = "engine.harvest"
	spanRound    = "control.round"
	spanDecide   = "control.decide"
	spanPlan     = "balance.plan"
	spanModel    = "engine.model"
)

// span is one timed call into a layer. Parent is the index of the span
// that was open when this one began (-1 for an interval); Interval is
// the identifier every span of one interval shares.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the tracer's epoch
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Interval int    `json:"interval"`
}

// tracer keeps the spans and counters of one traced repetition in
// memory. Spans nest strictly in time even across goroutines — the
// driver is blocked in the control round while the policy server
// decides — so one stack of open spans, under a mutex, yields every
// span's parent. A nil *tracer records nothing: the untraced paths call
// the same code with no tracer.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	open     []int
	interval int
	counts   map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string]int64)}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.open = append(t.open, id)
	// The clock is read last, so the span excludes this bookkeeping.
	t.spans = append(t.spans, span{Name: name, Parent: parent, Interval: t.interval,
		Start: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
}

// count adds to a named counter.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// nextInterval advances the shared identifier; the driver calls it once
// per interval, with no span open.
func (t *tracer) nextInterval() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.interval++
	t.mu.Unlock()
}

// reset drops everything recorded so far (the warm-up intervals).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.interval = 0
	for k := range t.counts {
		delete(t.counts, k)
	}
	t.mu.Unlock()
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	calls int
	total time.Duration // sum of durations
	self  time.Duration // total minus the time covered by child spans
}

// summarize adds spans up by name. A span's self time is its duration
// minus its children's: what the layer spent itself, not in the layers
// it called.
func summarize(spans []span) map[string]layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.calls++
		lt.total += time.Duration(s.End - s.Start)
		lt.self += time.Duration(s.End - s.Start - child[i])
		out[s.Name] = lt
	}
	return out
}

// durations returns every span of one name, in microseconds.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeSpans dumps one repetition's spans as JSON lines.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
