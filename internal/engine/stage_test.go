package engine

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Second round of engine coverage: flush hooks, model edges, guard
// paths and idempotent teardown.

type flushOp struct {
	flushed int
}

func (f *flushOp) Process(ctx *TaskCtx, t tuple.Tuple) {}
func (f *flushOp) FlushInterval(ctx *TaskCtx) {
	f.flushed++
	ctx.Emit(tuple.New(99, "flush"))
}

// captureSink collects everything a stage emits, for tests that read a
// stage's output directly.
type captureSink struct {
	mu  sync.Mutex
	got []tuple.Tuple
}

func (c *captureSink) FeedBatch(ts []tuple.Tuple) {
	c.mu.Lock()
	c.got = append(c.got, ts...)
	c.mu.Unlock()
}

func TestFlushOpsRunsOnIntervalFlushers(t *testing.T) {
	op := &flushOp{}
	st := NewStage("f", 1, func(int) Operator { return op }, 1, newAsgRouter(1))
	defer st.Stop()
	var out captureSink
	st.SetSink(&out)
	st.FeedBatch([]tuple.Tuple{tuple.New(1, nil)})
	st.CloseInterval()
	if op.flushed != 1 {
		t.Fatalf("flushed %d times, want 1", op.flushed)
	}
	if len(out.got) != 1 || out.got[0].Key != 99 {
		t.Fatalf("flush emission lost: %v", out.got)
	}
}

func TestFlushOpsSkipsPlainOperators(t *testing.T) {
	st := NewStage("p", 1, func(int) Operator { return Discard }, 1, newAsgRouter(1))
	defer st.Stop()
	var out captureSink
	st.SetSink(&out)
	st.CloseInterval() // must not panic or emit
	if len(out.got) != 0 {
		t.Fatalf("plain operator emitted %d tuples on flush", len(out.got))
	}
}

// TestLastStageSinkSurvivesRunInterval pins construction-time wiring:
// the engine points every stage but the last at its successor once, and
// never touches the last stage's sink — a caller's SetSink there (the
// cluster worker's data connection) keeps receiving across intervals.
func TestLastStageSinkSurvivesRunInterval(t *testing.T) {
	fwd := OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) { ctx.Emit(tp) })
	s0 := NewStage("a", 2, func(int) Operator { return fwd }, 1, newAsgRouter(2))
	s1 := NewStage("b", 2, func(int) Operator { return fwd }, 1, newAsgRouter(2))
	var out captureSink
	s1.SetSink(&out)
	cfg := DefaultConfig()
	cfg.Budget = 300
	var n uint64
	e := New(func() tuple.Tuple {
		n++
		return tuple.New(tuple.Key(n%40), nil)
	}, cfg, s0, s1)
	defer e.Stop()
	e.Run(3)
	if len(out.got) != 900 {
		t.Fatalf("last stage's sink received %d tuples over 3 intervals, want 900", len(out.got))
	}
}

func TestStageStopIdempotent(t *testing.T) {
	st := statefulStage(2, 1)
	st.Stop()
	st.Stop() // second call must be a no-op, not a close-panic
}

func TestEngineStopIdempotent(t *testing.T) {
	e := New(func() tuple.Tuple { return tuple.New(1, nil) }, DefaultConfig(), statefulStage(1, 1))
	e.Stop()
	e.Stop()
}

func TestRunIntervalAfterStopPanics(t *testing.T) {
	e := New(func() tuple.Tuple { return tuple.New(1, nil) }, DefaultConfig(), statefulStage(1, 1))
	e.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("RunInterval after Stop did not panic")
		}
	}()
	e.RunInterval()
}

func TestApplyPlanWithoutAssignmentRouterErrors(t *testing.T) {
	st := NewStage("s", 2, func(int) Operator { return Discard }, 1, NewShuffleRouter(2))
	defer st.Stop()
	if _, err := st.ApplyPlan(nil, nil); err == nil {
		t.Fatal("ApplyPlan on shuffle stage did not error")
	}
}

func TestScaleOutWithoutRingErrors(t *testing.T) {
	// An assignment router over a non-ring hasher cannot grow.
	r := NewAssignmentRouter(route.NewAssignment(route.NewTable(), route.ModHasher(2)))
	st := NewStage("s", 2, func(int) Operator { return Discard }, 1, r)
	defer st.Stop()
	if _, err := st.ScaleOut(nil); err == nil {
		t.Fatal("ScaleOut without a ring did not error")
	}
	if st.Instances() != 2 {
		t.Fatalf("failed ScaleOut changed instance count to %d", st.Instances())
	}
}

func TestThrottleFloor(t *testing.T) {
	// A hopelessly overloaded single instance: emission must throttle
	// but never below 10% of the budget.
	st := statefulStage(2, 1)
	cfg := DefaultConfig()
	cfg.Budget = 1000
	e := New(func() tuple.Tuple { return tuple.New(7, nil) }, cfg, st)
	defer e.Stop()
	e.Run(20)
	last := e.Recorder.Series[19]
	if last.Emitted >= 1000 {
		t.Fatal("spout never throttled")
	}
	if last.Emitted < 100 {
		t.Fatalf("throttle floor breached: emitted %d", last.Emitted)
	}
}

func TestLatencyGrowsWithBacklog(t *testing.T) {
	st := statefulStage(2, 1)
	cfg := DefaultConfig()
	cfg.Budget = 1000
	e := New(func() tuple.Tuple { return tuple.New(7, nil) }, cfg, st)
	defer e.Stop()
	e.Run(2)
	if e.Recorder.Series[1].LatencyMs <= e.Recorder.Series[0].LatencyMs {
		t.Fatalf("latency did not grow with backlog: %v then %v",
			e.Recorder.Series[0].LatencyMs, e.Recorder.Series[1].LatencyMs)
	}
}

func TestMigrationPenaltyConsumesCapacityOnce(t *testing.T) {
	st := statefulStage(2, 1)
	cfg := DefaultConfig()
	cfg.Budget = 1000
	cfg.MigrationFactor = 1
	e := New(func() tuple.Tuple { return tuple.New(tuple.Key(len(st.Backlog)), nil) }, cfg, st)
	defer e.Stop()
	st.MigPenalty[0] = 100
	e.RunInterval()
	if st.MigPenalty[0] != 0 {
		t.Fatal("migration penalty not reset after being charged")
	}
}

func TestCapacityAccessors(t *testing.T) {
	st := statefulStage(4, 1)
	cfg := DefaultConfig()
	cfg.Budget = 4000
	e := New(func() tuple.Tuple { return tuple.New(1, nil) }, cfg, st)
	defer e.Stop()
	if got := e.CapacityOf(0); got != 1000 {
		t.Fatalf("CapacityOf = %d, want saturation 1000", got)
	}
	e.RunInterval()
	if e.LastEmitted() != 4000 {
		t.Fatalf("LastEmitted = %d", e.LastEmitted())
	}
	if e.Interval() != 1 {
		t.Fatalf("Interval = %d", e.Interval())
	}
}

func TestExplicitCapacityOverride(t *testing.T) {
	st := statefulStage(4, 1)
	cfg := DefaultConfig()
	cfg.Budget = 4000
	cfg.Capacity = 99
	e := New(func() tuple.Tuple { return tuple.New(1, nil) }, cfg, st)
	defer e.Stop()
	if got := e.CapacityOf(0); got != 99 {
		t.Fatalf("CapacityOf = %d, want explicit 99", got)
	}
}

func TestLastSnapshotsExposed(t *testing.T) {
	st := statefulStage(2, 1)
	cfg := DefaultConfig()
	cfg.Budget = 100
	e := observeAll(New(func() tuple.Tuple { return tuple.New(5, nil) }, cfg, st))
	defer e.Stop()
	e.RunInterval()
	snaps := e.LastSnapshots()
	if len(snaps) != 1 || len(snaps[0].Keys) != 1 || snaps[0].Keys[0].Key != 5 {
		t.Fatalf("LastSnapshots = %+v", snaps)
	}
}

func TestAdvanceWorkloadCalledPerInterval(t *testing.T) {
	st := statefulStage(1, 1)
	cfg := DefaultConfig()
	cfg.Budget = 10
	e := New(func() tuple.Tuple { return tuple.New(1, nil) }, cfg, st)
	defer e.Stop()
	var calls []int64
	e.AdvanceWorkload = func(i int64) { calls = append(calls, i) }
	e.Run(3)
	if len(calls) != 3 || calls[0] != 1 || calls[2] != 3 {
		t.Fatalf("AdvanceWorkload calls = %v", calls)
	}
}

func TestShuffleRouterRoundRobin(t *testing.T) {
	// Batches of 1..7 tuples, each claiming its positions at once, wrap
	// the round-robin at every offset.
	r := NewShuffleRouter(3)
	counts := make([]int, 3)
	dst := make([]int, 7)
	for n, size := 0, 1; n < 300; n, size = n+size, size%7+1 {
		size = min(size, 300-n)
		r.dests(nil, make([]tuple.Tuple, size), dst[:size])
		for _, d := range dst[:size] {
			counts[d]++
		}
	}
	for d, c := range counts {
		if c != 100 {
			t.Fatalf("shuffle instance %d got %d of 300", d, c)
		}
	}
}

func TestAssignmentRouterSwap(t *testing.T) {
	ar := newAsgRouter(2)
	old := ar.Assignment()
	tab := route.NewTable()
	tab.Put(5, 1)
	ar.Swap(route.NewAssignment(tab, old.Hasher()))
	if ar.Assignment().Dest(5) != 1 {
		t.Fatal("swapped assignment not in effect")
	}
}

func TestApplyPlanLiveOnShuffleStageErrors(t *testing.T) {
	st := NewStage("s", 2, func(int) Operator { return Discard }, 1, NewShuffleRouter(2))
	defer st.Stop()
	if _, err := st.ApplyPlan(&balance.Plan{}, nil); err == nil {
		t.Fatal("ApplyPlan on shuffle stage did not error")
	}
}

// TestActuationRefusesAnOpenStage: between StartInterval and
// CloseInterval every actuation — a plan, a split set, a resize either
// way — returns an error naming the stage and touches nothing: the
// instance count, the assignment, the live keys, every task's store and
// the migration penalties stay as they were. After CloseInterval the
// same call succeeds.
func TestActuationRefusesAnOpenStage(t *testing.T) {
	const nd, keys = 4, 100
	plan := func(st *Stage) *balance.Plan {
		asg := st.AssignmentRouter().Assignment()
		p := &balance.Plan{Table: route.NewTable(), MoveDest: map[tuple.Key]int{}}
		for k := tuple.Key(0); k < keys; k += 3 {
			dst := (asg.Dest(k) + 1) % nd
			p.Table.Put(k, dst)
			p.Moved = append(p.Moved, k)
			p.MoveDest[k] = dst
		}
		return p
	}
	for _, tc := range []struct {
		name string
		act  func(e *Engine, st *Stage) error
	}{
		{"ApplyPlan", func(_ *Engine, st *Stage) error {
			_, err := st.ApplyPlan(plan(st), nil)
			return err
		}},
		{"ApplySplitSet", func(_ *Engine, st *Stage) error {
			return st.ApplySplitSet([]stats.HotKey{{Key: 1, Fan: 2}, {Key: 2, Fan: 3}})
		}},
		{"ResizeStage+1", func(e *Engine, _ *Stage) error {
			_, err := e.ResizeStage(0, +1, nil)
			return err
		}},
		{"ResizeStage-1", func(e *Engine, _ *Stage) error {
			_, err := e.ResizeStage(0, -1, nil)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStage("open-stage", nd, func(int) Operator { return StatefulCount }, 2, newAsgRouter(nd))
			e := NewBatch(nil, DefaultConfig(), st)
			defer e.Stop()
			ts := make([]tuple.Tuple, 3*keys)
			for i := range ts {
				ts[i] = tuple.New(tuple.Key(i%keys), nil)
			}
			st.FeedBatch(ts)
			st.MigPenalty[1] = 7
			st.StartInterval(1)
			st.FeedBatch(ts)
			st.Barrier()

			sizes := func() []int64 {
				out := make([]int64, st.Instances())
				for d := range out {
					out[d] = st.StoreOf(d).TotalSize()
				}
				return out
			}
			n, asg, live, sz, pen := st.Instances(), st.AssignmentRouter().Assignment(), st.LiveKeys(), sizes(), slices.Clone(st.MigPenalty)

			err := tc.act(e, st)
			if err == nil || !strings.Contains(err.Error(), `"open-stage"`) {
				t.Fatalf("actuation on an open stage returned %v, want an error naming the stage", err)
			}
			st.Barrier()
			if got := st.Instances(); got != n {
				t.Fatalf("instances %d → %d", n, got)
			}
			if st.AssignmentRouter().Assignment() != asg {
				t.Fatal("the assignment was swapped")
			}
			if got := st.LiveKeys(); !slices.Equal(got, live) {
				t.Fatalf("live keys changed: %d → %d", len(live), len(got))
			}
			if got := sizes(); !slices.Equal(got, sz) {
				t.Fatalf("per-task store sizes %v → %v", sz, got)
			}
			if !slices.Equal(st.MigPenalty, pen) {
				t.Fatalf("MigPenalty %v → %v", pen, st.MigPenalty)
			}

			st.CloseInterval()
			if err := tc.act(e, st); err != nil {
				t.Fatalf("actuation on the sealed stage: %v", err)
			}
		})
	}
}
