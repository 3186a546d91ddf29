package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/state"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Tests of the streaming inter-stage pipeline: Cfg.Pipeline must change
// cost, not semantics — the downstream multiset, per-interval metrics,
// harvest snapshots and backpressure behavior stay identical to the
// store-and-forward driver, and task-goroutine flushes must survive
// live migration of the downstream stage under -race.

// mkTwoStageEngine builds a map→count topology over a seeded Zipf draw:
// stage 0 forwards a derived tuple per input, stage 1 counts arrivals
// per key into windowed state. Returns the engine, both stages and the
// downstream counting fleet.
func mkTwoStageEngine(pipelined bool) (*Engine, *Stage, *Stage, []*countingOp) {
	const nd = 4
	gen := workload.NewZipfStream(1500, 0.9, 0, 8000, 29)
	fwd := OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) {
		ctx.Emit(tuple.New(tp.Key, nil))
	})
	s0 := NewStage("map", nd, func(int) Operator { return fwd }, 1, newAsgRouter(nd))
	fleet := make([]*countingOp, nd)
	s1 := NewStage("count", nd, func(id int) Operator {
		fleet[id] = &countingOp{counts: make(map[tuple.Key]int64)}
		return fleet[id]
	}, 2, newAsgRouter(nd))
	cfg := DefaultConfig()
	cfg.Budget = 8000
	cfg.Pipeline = pipelined
	e := NewBatch(gen.NextBatch, cfg, s0, s1)
	return e, s0, s1, fleet
}

// TestPipelineMatchesStoreAndForward pins the tentpole equivalence
// claim: with Cfg.Pipeline the per-interval metric series, the harvest
// snapshots of both stages and the downstream tuple multiset equal the
// store-and-forward run over identical seeds.
func TestPipelineMatchesStoreAndForward(t *testing.T) {
	sf, _, _, sfFleet := mkTwoStageEngine(false)
	defer sf.Stop()
	sf.Run(5)

	pl, _, _, plFleet := mkTwoStageEngine(true)
	defer pl.Stop()
	pl.Run(5)

	for i := 0; i < 5; i++ {
		ma, mb := sf.Recorder.Series[i], pl.Recorder.Series[i]
		if ma != mb {
			t.Fatalf("interval %d metrics diverge:\nstore-and-forward %+v\npipelined         %+v", i, ma, mb)
		}
	}
	for si := 0; si < 2; si++ {
		sa, sb := sf.LastSnapshots()[si], pl.LastSnapshots()[si]
		if len(sa.Keys) != len(sb.Keys) {
			t.Fatalf("stage %d snapshot sizes %d ≠ %d", si, len(sb.Keys), len(sa.Keys))
		}
		for i := range sa.Keys {
			if sa.Keys[i] != sb.Keys[i] {
				t.Fatalf("stage %d snapshot entry %d: %+v ≠ %+v", si, i, sb.Keys[i], sa.Keys[i])
			}
		}
	}
	want, got := mergedCounts(sfFleet), mergedCounts(plFleet)
	if len(want) != len(got) {
		t.Fatalf("downstream distinct keys %d ≠ %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("key %d reached stage 1 %d times pipelined, %d store-and-forward", k, got[k], n)
		}
	}
}

// TestPipelineSingleStageFallsBackToLegacy pins that Cfg.Pipeline on a
// single-stage topology is a no-op: the store-and-forward close runs
// and emissions are drained (and dropped) exactly as before.
func TestPipelineSingleStageFallsBackToLegacy(t *testing.T) {
	mk := func(pipelined bool) *Engine {
		st := statefulStage(2, 1)
		cfg := DefaultConfig()
		cfg.Budget = 2000
		cfg.Pipeline = pipelined
		var n uint64
		return New(func() tuple.Tuple {
			n++
			return tuple.New(tuple.Key(n%100), nil)
		}, cfg, st)
	}
	a, b := mk(false), mk(true)
	defer a.Stop()
	defer b.Stop()
	a.Run(3)
	b.Run(3)
	for i := range a.Recorder.Series {
		if a.Recorder.Series[i] != b.Recorder.Series[i] {
			t.Fatalf("single-stage interval %d diverges under Pipeline", i)
		}
	}
}

// TestBackpressureScansAllStages pins the max-pending fix: a backlogged
// downstream stage throttles the spout even though the target stage is
// clear, with the same proportional formula the single-stage engine
// always used.
func TestBackpressureScansAllStages(t *testing.T) {
	fwd := OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) { ctx.Emit(tuple.New(tp.Key, nil)) })
	mk := func() (*Engine, *Stage) {
		s0 := NewStage("map", 1, func(int) Operator { return fwd }, 1, newAsgRouter(1))
		s1 := NewStage("count", 1, func(int) Operator { return Discard }, 1, newAsgRouter(1))
		cfg := DefaultConfig()
		cfg.Budget = 1000 // capacity 1000 per stage, pending threshold 500
		var n uint64
		e := New(func() tuple.Tuple {
			n++
			return tuple.New(tuple.Key(n%50), nil)
		}, cfg, s0, s1)
		return e, s1
	}
	for _, pipelined := range []bool{false, true} {
		e, s1 := mk()
		e.Cfg.Pipeline = pipelined
		// A downstream backlog of 2000 against threshold 500 must
		// throttle emission to 500/2000 of the budget: 250 tuples.
		s1.Backlog[0] = 2000
		e.RunInterval()
		e.Stop()
		if got := e.LastEmitted(); got != 250 {
			t.Fatalf("pipelined=%v: downstream backlog 2000 emitted %d, want 250", pipelined, got)
		}
	}
}

// TestBackpressureSingleStageUnchanged pins that the all-stage scan
// reproduces the original single-stage throttle exactly, including the
// 0.1 floor.
func TestBackpressureSingleStageUnchanged(t *testing.T) {
	for _, tc := range []struct {
		backlog int64
		want    int64
	}{
		{0, 1000},    // below threshold: full budget
		{500, 1000},  // at threshold: full budget
		{2000, 250},  // 500/2000 of 1000
		{50000, 100}, // floor at 0.1
	} {
		st := statefulStage(1, 1)
		cfg := DefaultConfig()
		cfg.Budget = 1000
		var n uint64
		e := New(func() tuple.Tuple {
			n++
			return tuple.New(tuple.Key(n%50), nil)
		}, cfg, st)
		st.Backlog[0] = tc.backlog
		e.RunInterval()
		e.Stop()
		if got := e.LastEmitted(); got != tc.want {
			t.Fatalf("backlog %d emitted %d, want %d", tc.backlog, got, tc.want)
		}
	}
}

// emitTickRecorder accumulates the EmitTick histogram of arriving
// tuples; instances share one map under a mutex (arrival order is not
// under test, the stamps are).
type emitTickRecorder struct {
	mu    *sync.Mutex
	ticks map[int64]int64
}

func (r emitTickRecorder) Process(ctx *TaskCtx, t tuple.Tuple) {
	r.mu.Lock()
	r.ticks[t.EmitTick]++
	r.mu.Unlock()
}

// TestEmitTickStampedAtEmission pins the emission-time stamp: tuples a
// stage emits carry the interval they were emitted in, on both
// transfer paths (previously the driver stamped them post hoc while
// concatenating).
func TestEmitTickStampedAtEmission(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		fwd := OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) { ctx.Emit(tuple.New(tp.Key, nil)) })
		s0 := NewStage("map", 2, func(int) Operator { return fwd }, 1, newAsgRouter(2))
		rec := emitTickRecorder{mu: &sync.Mutex{}, ticks: make(map[int64]int64)}
		s1 := NewStage("sink", 2, func(int) Operator { return rec }, 1, newAsgRouter(2))
		cfg := DefaultConfig()
		cfg.Budget = 600
		cfg.Pipeline = pipelined
		var n uint64
		e := New(func() tuple.Tuple {
			n++
			return tuple.New(tuple.Key(n%40), nil)
		}, cfg, s0, s1)
		e.Run(3)
		e.Stop()
		for tick := int64(0); tick < 3; tick++ {
			if got := rec.ticks[tick]; got != 600 {
				t.Fatalf("pipelined=%v: %d tuples stamped with interval %d, want 600 (%v)",
					pipelined, got, tick, rec.ticks)
			}
		}
	}
}

// TestDrainEmittedReusesBuffer pins the legacy path's allocation
// behavior: successive drains of comparable volume reuse one backing
// array instead of reallocating the concatenation every interval.
func TestDrainEmittedReusesBuffer(t *testing.T) {
	fwd := OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) { ctx.Emit(tp) })
	st := NewStage("f", 2, func(int) Operator { return fwd }, 1, newAsgRouter(2))
	defer st.Stop()
	feed := func() []tuple.Tuple {
		for i := 0; i < 100; i++ {
			st.Feed(tuple.New(tuple.Key(i), nil))
		}
		st.Barrier()
		return st.DrainEmitted()
	}
	first := feed()
	if len(first) != 100 {
		t.Fatalf("drained %d, want 100", len(first))
	}
	second := feed()
	if len(second) != 100 {
		t.Fatalf("drained %d, want 100", len(second))
	}
	if &first[0] != &second[0] {
		t.Fatal("second drain did not reuse the first drain's backing array")
	}
}

// TestPipelineConcurrentWithApplyPlanLive is the -race stress test of
// streaming transfer against live migration: upstream tasks flush
// emissions into the downstream stage from their own goroutines while
// a controller goroutine applies a live plan to that stage. No tuple
// may be lost — flushes for paused keys must be held and replayed —
// and migrated keys must land exactly at their planned destinations.
func TestPipelineConcurrentWithApplyPlanLive(t *testing.T) {
	const (
		nd        = 4
		keyDomain = 120
		total     = 24000
		chunk     = 256
	)
	fwd := OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) { ctx.Emit(tp) })
	s0 := NewStage("up", nd, func(int) Operator { return fwd }, 1, newAsgRouter(nd))
	defer s0.Stop()
	var processed atomic.Int64
	s1 := NewStage("down", nd, func(int) Operator {
		return OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) {
			ctx.Store.Add(tp.Key, state.Entry{Value: tp.Value, Size: tp.StateSize})
			processed.Add(1)
		})
	}, 2, newAsgRouter(nd))
	defer s1.Stop()
	s0.SetDownstream(s1)
	s0.StartInterval(0)

	// Preload the downstream stage so migration has state to move.
	pre := make([]tuple.Tuple, 2*keyDomain)
	for i := range pre {
		pre[i] = tuple.New(tuple.Key(i%keyDomain), i)
	}
	s1.FeedBatch(pre)
	s1.Barrier()

	// Plan: every third key moves one instance over on the downstream
	// stage, mid-stream.
	asg := s1.AssignmentRouter().Assignment()
	tab := route.NewTable()
	plan := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
	for k := tuple.Key(0); k < keyDomain; k += 3 {
		dst := (asg.Dest(k) + 1) % nd
		tab.Put(k, dst)
		plan.Moved = append(plan.Moved, k)
		plan.MoveDest[k] = dst
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]tuple.Tuple, chunk)
		for j := 0; j < total; {
			c := total - j
			if c > chunk {
				c = chunk
			}
			for i := 0; i < c; i++ {
				buf[i] = tuple.New(tuple.Key((j+i)%keyDomain), j+i)
			}
			s0.FeedBatch(buf[:c])
			j += c
		}
	}()
	s1.ApplyPlan(plan, nil)
	wg.Wait()
	s0.CloseInterval() // residual task buffers stream downstream
	s1.Barrier()

	want := int64(len(pre) + total)
	if got := processed.Load(); got != want {
		t.Fatalf("downstream processed %d of %d tuples across live migration", got, want)
	}
	cur := s1.AssignmentRouter().Assignment()
	for _, k := range plan.Moved {
		home := cur.Dest(k)
		if home != plan.MoveDest[k] {
			t.Fatalf("key %d routes to %d, plan said %d", k, home, plan.MoveDest[k])
		}
		for d := 0; d < nd; d++ {
			if d != home && s1.StoreOf(d).Size(k) != 0 {
				t.Fatalf("key %d leaked state on instance %d", k, d)
			}
		}
	}
	var totalState int64
	for d := 0; d < nd; d++ {
		totalState += s1.StoreOf(d).TotalSize()
	}
	if totalState != want {
		t.Fatalf("downstream state %d, want %d (tuple loss or duplication)", totalState, want)
	}
}
