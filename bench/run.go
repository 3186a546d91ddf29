package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	engmetrics "repro/internal/metrics"
	"repro/internal/tuple"
)

// warmIntervals run before the timed region: the first plans fire, the
// routing table and the trackers' hash tables reach their working size,
// pooled buffers are allocated and the sockets' codecs are primed.
const warmIntervals = 20

// driverKind selects what drives a repetition's intervals.
type driverKind int

const (
	// driveEngine is the shipped driver (engine.RunInterval, or the
	// coordinator's) over the shipped construction. Untraced.
	driveEngine driverKind = iota
	// driveTraced is the benchmark's spelled-out interval sequence (for
	// a cluster: the coordinator) with spans, over policies and operators
	// that record spans and busy time.
	driveTraced
	// driveBare is the spelled-out sequence with no tracer: what the
	// copy itself costs, apart from the spans.
	driveBare
)

// repSpec is one repetition: which input, how long, driven how.
type repSpec struct {
	seed   int64
	warm   int
	n      int // timed intervals
	kind   driverKind
	exact  bool   // keep per-key counts and compare them (-smoke)
	spanTo string // traced repetitions: directory to write the spans to
}

// rep is what one repetition measured.
type rep struct {
	spec     repSpec
	budget   int // tuples per interval
	setup    time.Duration
	wall     time.Duration // the n timed intervals
	interval []float64     // per timed interval, ms
	rows     []engmetrics.Interval
	allRows  []engmetrics.Interval // warm-up included

	attempted int64
	failed    int64
	problems  []string

	proc procDelta
	left aftermath

	// Traced repetitions only.
	spans  []span
	counts map[string]int64
	opBusy map[string]time.Duration
	head   []tuple.Key // the input's first kernelTuples keys, for the kernels
}

// tuples is the timed region's spout tuples.
func (r *rep) tuples() int64 { return int64(len(r.rows)) * int64(r.budget) }

func (r *rep) tuplesPerSec() float64 { return float64(r.tuples()) / r.wall.Seconds() }

// start builds the workload's system for one repetition.
func (w *workloadDef) start(rp *replay, kind driverKind) (system, error) {
	tr := rp.tr
	if w.spec != nil {
		spec := w.spec(rp.draw, tr)
		if w.clustered {
			return startCluster(spec, tr)
		}
		sys := spec.BuildLocal()
		if kind == driveEngine {
			return &engineSystem{sys: sys}, nil
		}
		return newStepSystem(sys, nil, rp.draw, tr), nil
	}
	sys, sp := w.build(rp.draw, tr)
	if kind == driveEngine {
		return &engineSystem{sys: sys, sp: sp}, nil
	}
	return newStepSystem(sys, sp, rp.draw, tr), nil
}

// runRep is one repetition end to end: set-up (pre-generate the input,
// build, warm up), the timed intervals, tear-down, and the check of the
// operators' folds against the input's.
func (w *workloadDef) runRep(rs repSpec) (*rep, error) {
	r := &rep{spec: rs, budget: w.budget}
	t0 := time.Now()
	in := genInput(w, rs.seed)
	rp := &replay{in: in}
	if rs.kind == driveTraced {
		rp.tr = newTracer()
	}
	live.begin(rs.kind == driveTraced, rs.exact)
	sys, err := w.start(rp, rs.kind)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	stopped := false
	defer func() {
		if !stopped {
			sys.stop()
		}
	}()
	for i := 0; i < rs.warm; i++ {
		if err := sys.runInterval(); err != nil {
			return nil, fmt.Errorf("%s: warm-up interval %d: %w", w.name, i, err)
		}
	}
	rp.tr.reset()
	// Start every timed region from a collected heap, so a repetition
	// does not pay for the previous one's garbage or its own set-up's.
	runtime.GC()
	r.setup = time.Since(t0)

	r.interval = make([]float64, rs.n)
	before := readProc()
	start := time.Now()
	last := start
	for i := 0; i < rs.n; i++ {
		if err := sys.runInterval(); err != nil {
			return nil, fmt.Errorf("%s: interval %d: %w", w.name, i, err)
		}
		now := time.Now()
		r.interval[i] = float64(now.Sub(last)) / 1e6
		last = now
	}
	r.wall = last.Sub(start)
	r.proc = readProc().since(before)

	r.allRows = sys.series()
	r.rows = r.allRows[rs.warm:]
	stopped = true
	if err := sys.stop(); err != nil {
		return nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
	}
	r.left = sys.after()
	if tr := rp.tr; tr != nil {
		r.spans, r.counts = tr.spans, tr.counts
		r.head = append([]tuple.Key(nil), in.keys[:kernelTuples]...)
		r.opBusy = make(map[string]time.Duration)
		for _, name := range []string{opForward, opCount} {
			_, busy, _ := live.byName(name)
			r.opBusy[name] = busy
		}
		if rs.spanTo != "" {
			name := fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, rs.seed)
			if err := writeSpans(rs.spanTo, name, r.spans); err != nil {
				return nil, err
			}
		}
	}
	w.verify(r, in)
	return r, nil
}

// verify checks the repetition's outputs against the reference: every
// interval emitted exactly the budget, and each stage's operators folded
// exactly the multiset of keys the input holds for the intervals run. A
// difference in count is that many tuples lost or duplicated; equal
// counts with different sums mean at least one of each.
func (w *workloadDef) verify(r *rep, in *input) {
	total := len(r.allRows)
	for i, row := range r.allRows {
		if row.Emitted != int64(w.budget) {
			r.problems = append(r.problems, fmt.Sprintf("interval %d emitted %d tuples, want %d", i, row.Emitted, w.budget))
			break
		}
	}
	if total != r.spec.warm+r.spec.n {
		r.problems = append(r.problems, fmt.Sprintf("recorded %d intervals, ran %d", total, r.spec.warm+r.spec.n))
	}
	want := in.reference(total)
	r.attempted = int64(want.n)
	ops := []string{opCount}
	if w.spec != nil {
		ops = []string{opForward, opCount}
	}
	for _, name := range ops {
		got, _, exact := live.byName(name)
		var failed int64
		switch {
		case got.n > want.n:
			failed = int64(got.n - want.n)
		case got.n < want.n:
			failed = int64(want.n - got.n)
		case got != want:
			failed = 1
		}
		if failed > 0 {
			r.problems = append(r.problems, fmt.Sprintf("%s folded %+v, input holds %+v", name, got, want))
		}
		if r.spec.exact && failed == 0 {
			ref := in.exactCounts(total)
			for k, n := range ref {
				if exact[k] != n {
					failed++
				}
			}
			if len(exact) != len(ref) {
				failed++
			}
			if failed > 0 {
				r.problems = append(r.problems, fmt.Sprintf("%s: %d keys with a wrong exact count", name, failed))
			}
		}
		if failed > r.failed {
			r.failed = failed
		}
	}
}

// procCounters are the process-wide resource counters read at the edges
// of the timed region.
type procCounters struct {
	cpu        time.Duration // user + system, all threads
	allocBytes uint64
	gcCPU      float64 // seconds
	maxRSSKB   int64
}

// procDelta is their change over the timed region (peak RSS is the
// process's high-water mark at the end of it, not a difference).
type procDelta struct {
	cpu        time.Duration
	allocBytes uint64
	gcCPU      float64
	peakRSSMB  float64
}

func readProc() procCounters {
	var c procCounters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.maxRSSKB = ru.Maxrss
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[1].Value.Float64()
	}
	return c
}

func (c procCounters) since(b procCounters) procDelta {
	return procDelta{
		cpu:        c.cpu - b.cpu,
		allocBytes: c.allocBytes - b.allocBytes,
		gcCPU:      c.gcCPU - b.gcCPU,
		peakRSSMB:  float64(c.maxRSSKB) / 1024,
	}
}
