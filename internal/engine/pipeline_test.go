package engine

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Tests of the streaming inter-stage transfer: overlapping the transfer
// with processing must change cost, not semantics — the downstream
// multiset, per-interval metrics, harvest snapshots and backpressure
// behavior stay identical to a store-and-forward run, and
// task-goroutine flushes must compose with a migration of the
// downstream stage between intervals under -race.

// holdOp keeps every tuple of the interval and emits them all at the
// interval flush.
type holdOp struct{ held []tuple.Tuple }

func (h *holdOp) Process(_ *TaskCtx, t tuple.Tuple) { h.held = append(h.held, t) }
func (h *holdOp) FlushInterval(ctx *TaskCtx) {
	for _, t := range h.held {
		ctx.Emit(t)
	}
	h.held = h.held[:0]
}

// refStoreAndForward is the barrier transfer the engine used to have,
// as the reference the streaming transfer is pinned against: between
// every two stages sits a one-instance relay that holds the interval's
// tuples until its own close — which the cascading close reaches only
// after the stage before it has run to completion — so the stage after
// it gets its whole input at once, after upstream finished. The relays
// have unbounded capacity, so they never show in the throttle. Stage si
// of the topology is Stages[2*si] of the returned engine.
func refStoreAndForward(spout SpoutBatch, cfg Config, stages ...*Stage) *Engine {
	var all []*Stage
	for i, s := range stages {
		if i > 0 {
			all = append(all, NewStage("hold", 1, func(int) Operator { return &holdOp{} }, 1, NewShuffleRouter(1)))
		}
		all = append(all, s)
	}
	e := NewBatch(spout, cfg, all...)
	for i := 1; i < len(all); i += 2 {
		e.SetStageCapacity(i, math.MaxInt64/2)
	}
	return e
}

// mkTwoStageEngine builds a map→count topology over a seeded Zipf draw:
// stage 0 forwards a derived tuple per input, stage 1 counts arrivals
// per key into windowed state; ref selects the store-and-forward
// reference. Returns the engine, both stages and the downstream
// counting fleet.
func mkTwoStageEngine(ref bool) (*Engine, []*stats.Snapshot, []*countingOp) {
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
	var e *Engine
	if ref {
		e = refStoreAndForward(gen.NextBatch, cfg, s0, s1)
	} else {
		e = NewBatch(gen.NextBatch, cfg, s0, s1)
	}
	return e, observeAll(e), fleet
}

// TestPipelineMatchesStoreAndForward pins the equivalence claim: under
// the streaming transfer the per-interval metric series, the harvest
// snapshots of both stages and the downstream tuple multiset equal the
// store-and-forward reference over identical seeds.
func TestPipelineMatchesStoreAndForward(t *testing.T) {
	sf, sfSnaps, sfFleet := mkTwoStageEngine(true)
	defer sf.Stop()
	sf.Run(5)

	pl, plSnaps, plFleet := mkTwoStageEngine(false)
	defer pl.Stop()
	pl.Run(5)

	for i := 0; i < 5; i++ {
		ma, mb := sf.Recorder.Series[i], pl.Recorder.Series[i]
		if ma != mb {
			t.Fatalf("interval %d metrics diverge:\nstore-and-forward %+v\npipelined         %+v", i, ma, mb)
		}
	}
	for si := 0; si < 2; si++ {
		sa, sb := sfSnaps[2*si], plSnaps[si]
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
		e := NewBatch(BatchSpout(func() tuple.Tuple {
			n++
			return tuple.New(tuple.Key(n%50), nil)
		}), cfg, s0, s1)
		return e, s1
	}
	e, s1 := mk()
	// A downstream backlog of 2000 against threshold 500 must throttle
	// emission to 500/2000 of the budget: 250 tuples.
	s1.Backlog[0] = 2000
	e.RunInterval()
	e.Stop()
	if got := e.LastEmitted(); got != 250 {
		t.Fatalf("downstream backlog 2000 emitted %d, want 250", got)
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
		e := NewBatch(BatchSpout(func() tuple.Tuple {
			n++
			return tuple.New(tuple.Key(n%50), nil)
		}), cfg, st)
		st.Backlog[0] = tc.backlog
		e.RunInterval()
		e.Stop()
		if got := e.LastEmitted(); got != tc.want {
			t.Fatalf("backlog %d emitted %d, want %d", tc.backlog, got, tc.want)
		}
	}
}

// TestPipelineConcurrentWithApplyPlanLive is the -race stress test of
// streaming transfer around a migration: for an interval, four feeders
// drive the upstream stage while its tasks flush emissions into the
// downstream stage from their own goroutines; the cascading close
// drains both, a plan moves every third key of the downstream stage,
// and a second interval streams through. No tuple may be lost and
// migrated keys must land exactly at their planned destinations.
func TestPipelineConcurrentWithApplyPlanLive(t *testing.T) {
	const (
		nd        = 4
		feeders   = 4
		keyDomain = 120
		chunks    = 12 // per feeder per interval
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
	}, 3, newAsgRouter(nd))
	defer s1.Stop()
	s0.SetDownstream(s1)

	// Preload the downstream stage so migration has state to move.
	pre := make([]tuple.Tuple, 2*keyDomain)
	for i := range pre {
		pre[i] = tuple.New(tuple.Key(i%keyDomain), i)
	}
	s1.FeedBatch(pre)
	s1.Barrier()

	var seq atomic.Uint64
	draw := func(dst []tuple.Tuple) int {
		for i := range dst {
			n := seq.Add(1) - 1
			dst[i] = tuple.New(tuple.Key(n%keyDomain), n)
		}
		return len(dst)
	}
	feed := func() { feedConcurrently(s0, draw, feeders, chunks, chunk) }
	stressInterval(t, 0, feed, s0, s1)
	plan := stripePlan(s1, 0, 3, keyDomain)
	if _, err := s1.ApplyPlan(plan); err != nil {
		t.Fatalf("ApplyPlan: %v", err)
	}
	stressInterval(t, 1, feed, s0, s1)

	want := int64(len(pre) + 2*feeders*chunks*chunk)
	if got := processed.Load(); got != want {
		t.Fatalf("downstream processed %d of %d tuples across the migration", got, want)
	}
	cur := s1.AssignmentRouter().Assignment()
	for _, k := range plan.Moved {
		if home := cur.Dest(k); home != plan.MoveDest[k] {
			t.Fatalf("key %d routes to %d, plan said %d", k, home, plan.MoveDest[k])
		}
	}
	checkOneOwner(t, s1, nil, "after the second interval")
	if total := liveStateTotal(s1); total != want {
		t.Fatalf("downstream state %d, want %d (tuple loss or duplication)", total, want)
	}
}
