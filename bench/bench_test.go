package main

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/tuple"
)

func TestInputIsAFunctionOfTheSeed(t *testing.T) {
	small := *workloadNamed("variance") // same shape, a ring that takes milliseconds
	small.keys, small.budget = 2000, 500
	w := &small
	a, b := genInput(w, 7), genInput(w, 7)
	if !reflect.DeepEqual(a.keys, b.keys) || !reflect.DeepEqual(a.folds, b.folds) {
		t.Fatal("same seed produced different rings")
	}
	if c := genInput(w, 8); reflect.DeepEqual(a.keys, c.keys) {
		t.Fatal("different seeds produced the same ring")
	}
	// f = 1 re-ranks the keys before every interval: consecutive ring
	// intervals must differ in more than sampling noise would explain,
	// i.e. their hottest key differs somewhere along the ring.
	hottest := func(g int) tuple.Key {
		n := map[tuple.Key]int{}
		var best tuple.Key
		for _, k := range a.keys[g*a.budget : (g+1)*a.budget] {
			if n[k]++; n[k] > n[best] {
				best = k
			}
		}
		return best
	}
	same := true
	for g := 1; g < 8; g++ {
		same = same && hottest(g) == hottest(0)
	}
	if same {
		t.Fatal("fluctuation never moved the hottest key")
	}
	if len(a.keys) != ringIntervals*w.budget || a.reference(ringIntervals+1).n != uint64((ringIntervals+1)*w.budget) {
		t.Fatalf("ring holds %d keys, reference of %d intervals counts %d", len(a.keys), ringIntervals+1, a.reference(ringIntervals+1).n)
	}
}

func TestReplayWrapsAndStampsSeq(t *testing.T) {
	in := &input{budget: 2, keys: []tuple.Key{5, 6, 7}}
	rp := &replay{in: in}
	dst := make([]tuple.Tuple, 4)
	if n := rp.draw(dst); n != 4 {
		t.Fatalf("drew %d, want 4", n)
	}
	var keys []tuple.Key
	for i, tp := range dst {
		keys = append(keys, tp.Key)
		if tp.Seq != uint64(i+1) || tp.Cost != 1 || tp.StateSize != 1 {
			t.Fatalf("tuple %d = %+v", i, tp)
		}
	}
	if want := []tuple.Key{5, 6, 7, 5}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{50, 10, 40, 20, 30}, [3]float64{15, 30, 45}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := iqrShare([]float64{50, 10, 40, 20, 30}); got != 1 {
		t.Errorf("iqrShare = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(asc, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{3, 9}, 0.95); got != 9 {
		t.Errorf("p95 of two samples = %v, want the larger", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "a", Start: 0, End: 100, Parent: -1},
		{Name: "b", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 50, End: 70, Parent: 0},
		{Name: "c", Start: 15, End: 20, Parent: 1},
	}
	sum := summarize(spans)
	if a := sum["a"]; a.calls != 1 || a.total != 100 || a.self != 50 {
		t.Errorf("a = %+v, want total 100 self 50", a)
	}
	if b := sum["b"]; b.calls != 2 || b.total != 50 || b.self != 45 {
		t.Errorf("b = %+v, want total 50 self 45", b)
	}
	if c := sum["c"]; c.total != 5 || c.self != 5 {
		t.Errorf("c = %+v, want total 5 self 5", c)
	}
	// Two repetitions' spans summarized as one list keep their parents.
	both := append(shifted(spans, 0), shifted(spans, len(spans))...)
	if a := summarize(both)["a"]; a.calls != 2 || a.self != 100 {
		t.Errorf("concatenated a = %+v, want 2 calls, self 100", a)
	}
}

func TestTracerNestsAcrossGoroutines(t *testing.T) {
	tr := newTracer()
	iv := tr.begin(spanInterval)
	round := tr.begin(spanRound)
	done := make(chan struct{})
	go func() { // the policy server's goroutine, while the driver waits
		d := tr.begin(spanDecide)
		p := tr.begin(spanPlan)
		tr.end(p)
		tr.end(d)
		close(done)
	}()
	<-done
	tr.end(round)
	tr.end(iv)
	tr.nextInterval()
	draw := tr.begin(spanDraw)
	tr.end(draw)
	want := []struct {
		name     string
		parent   int
		interval int
	}{{spanInterval, -1, 0}, {spanRound, 0, 0}, {spanDecide, 1, 0}, {spanPlan, 2, 0}, {spanDraw, -1, 1}}
	for i, w := range want {
		s := tr.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Interval != w.interval || s.End < s.Start {
			t.Errorf("span %d = %+v, want %+v", i, s, w)
		}
	}
	var none *tracer // the untraced paths
	none.end(none.begin(spanDraw))
	none.count("x", 1)
	none.reset()
}

func TestDrawGapsAreTheFeedCalls(t *testing.T) {
	spans := []span{
		{Name: spanInterval, Start: 0, End: 100, Parent: -1},
		{Name: spanDraw, Start: 1, End: 3, Parent: 0},
		{Name: spanDraw, Start: 13, End: 15, Parent: 0},
		{Name: spanDraw, Start: 40, End: 42, Parent: 0},
		{Name: spanInterval, Start: 100, End: 200, Parent: -1},
		{Name: spanDraw, Start: 101, End: 103, Parent: 4}, // new interval: no gap to the last one
	}
	if got, want := drawGaps(spans), []float64{0.010, 0.025}; !reflect.DeepEqual(got, want) {
		t.Errorf("gaps %v us, want %v", got, want)
	}
}

func TestFoldDetectsLossAndDuplication(t *testing.T) {
	keys := []tuple.Key{3, 1, 4, 1, 5, 9, 2, 6}
	var ref fold
	for _, k := range keys {
		ref.addN(k, 1)
	}
	var rev fold // order must not matter, nor how tasks split the work
	var part fold
	for i := len(keys) - 1; i >= 0; i-- {
		if i%2 == 0 {
			rev.addN(keys[i], 1)
		} else {
			part.addN(keys[i], 1)
		}
	}
	rev.merge(part)
	if rev != ref {
		t.Fatalf("fold depends on order: %+v vs %+v", rev, ref)
	}
	var lost fold
	for _, k := range keys[1:] {
		lost.addN(k, 1)
	}
	if lost.n == ref.n {
		t.Fatal("a lost tuple left the count unchanged")
	}
	var swapped fold // one tuple lost, another duplicated
	for _, k := range keys[1:] {
		swapped.addN(k, 1)
	}
	swapped.addN(keys[2], 1)
	if swapped.n != ref.n || swapped == ref {
		t.Fatalf("loss plus duplication went unnoticed: %+v vs %+v", swapped, ref)
	}
	var bulk fold
	bulk.addN(7, 3)
	var single fold
	single.addN(7, 1)
	single.addN(7, 1)
	single.addN(7, 1)
	if bulk != single {
		t.Fatal("addN(k, 3) differs from three addN(k, 1)")
	}
}

// TestSmoke runs every workload end to end at smoke size — through the
// shipped driver and through the traced legs, the unix-socket cluster
// included — with exact per-key counts on. The traced run carries the
// self-checks: the spanned copy of the interval sequence must record the
// same series as engine.RunInterval, and pipe-cluster the same as
// pipe-local.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		res, err := endToEndRun(w, defaultSeed, smokeSizes, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() || res.attempted == 0 {
			t.Errorf("%s: end to end: failed %d of %d, problems %v", w.name, res.failed, res.attempted, res.problems)
		}
		for _, m := range endToEnd {
			if v, ok := res.values[m.name]; !ok || v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, v)
			}
		}
		res, err = traceRun(w, defaultSeed, smokeSizes, "", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Errorf("%s: traced: failed %d of %d, problems %v", w.name, res.failed, res.attempted, res.problems)
		}
		for _, m := range perLayer {
			if _, ok := res.values[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.name)
			}
		}
		wire := res.values["cluster.bytes_per_tuple"] > 0 && res.values["protocol.bytes_per_tuple"] > 0
		if wire != w.clustered {
			t.Errorf("%s: wire metrics reported = %v, clustered = %v", w.name, wire, w.clustered)
		}
		if split := res.values["engine.split_keys_max"] > 0; split != (w.name == "hotkey") {
			t.Errorf("%s: engine.split_keys_max = %v", w.name, res.values["engine.split_keys_max"])
		}
		if w.clustered {
			continue
		}
		if gap := res.values["trace.timeline_gap_pct"]; gap < -5 || gap > 5 {
			t.Errorf("%s: driver steps miss the interval's wall time by %.1f%%", w.name, gap)
		}
	}
}

// lossyOp drops one tuple before handing the rest to the real operator.
type lossyOp struct {
	*benchOp
	dropped *atomic.Bool
}

func (o lossyOp) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	if len(ts) > 0 && o.dropped.CompareAndSwap(false, true) {
		ts = ts[1:]
	}
	o.benchOp.ProcessBatch(ctx, ts)
}

func TestALostTupleFailsTheRun(t *testing.T) {
	lossy := *workloadNamed("variance")
	var dropped atomic.Bool
	lossy.build = func(spout engine.SpoutBatch, _ *tracer) (*topology.System, *controller.Splitter) {
		op := func(int) engine.Operator { return lossyOp{live.add(opCount, false), &dropped} }
		return topology.New(topology.SpoutBatch(spout), topology.Budget(int64(lossy.budget)), topology.MaxPending(0)).
			Stage("count", op, topology.Instances(8)).Build(), nil
	}
	res, err := endToEndRun(&lossy, defaultSeed, smokeSizes, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.failed != 1 {
		t.Fatalf("one dropped tuple: correct = %v, failed = %d, want incorrect with 1 failed", res.correct(), res.failed)
	}
	var out bytes.Buffer
	if report(&out, res, endToEnd) {
		t.Fatal("report accepted a run that lost a tuple")
	}
	if !bytes.Contains(out.Bytes(), []byte(`"correct":false`)) || !bytes.Contains(out.Bytes(), []byte(`"failed":1`)) {
		t.Fatalf("result line does not show the failure:\n%s", out.String())
	}
}

func TestSizesScaleWithSeconds(t *testing.T) {
	w := workloadNamed("pipe-local")
	a, b := sizesFor(w, 16), sizesFor(w, 32)
	if a.n*2 != b.n || a.reps != defaultReps || a.warm != warmIntervals {
		t.Errorf("sizesFor(16) = %+v, sizesFor(32) = %+v", a, b)
	}
	if s := sizesFor(w, 0.001); s.n < 10 {
		t.Errorf("a tiny --seconds gives %d intervals, want at least 10", s.n)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps the contract file at the
// repository root equal to what -describe prints from metrics.go and
// workloads.go.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark's directory:", err)
	}
	if !bytes.Equal(onDisk, describeJSON()) {
		t.Errorf("BENCHMARK.json differs from -describe; regenerate it with: bash bench/run.sh -describe > BENCHMARK.json")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
}
