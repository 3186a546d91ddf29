package engine

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/hashring"
	"repro/internal/route"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func newAsgRouter(nd int) *AssignmentRouter {
	return NewAssignmentRouter(route.NewAssignment(route.NewTable(), hashring.New(nd, 0)))
}

func statefulStage(nd, w int) *Stage {
	return NewStage("s", nd, func(int) Operator { return StatefulCount }, w, newAsgRouter(nd))
}

// Discard is an Operator that consumes tuples, charging their cost to
// the task but keeping no state — a stand-in sink for routing-focused
// tests. It implements BatchOperator, so a batch costs no per-tuple
// dispatch at all.
var Discard Operator = discardOp{}

type discardOp struct{}

func (discardOp) Process(ctx *TaskCtx, t tuple.Tuple)         {}
func (discardOp) ProcessBatch(ctx *TaskCtx, ts []tuple.Tuple) {}

// Discard keeps no state, so its split delta is trivially zero.
func (discardOp) SplitAbsorb(t tuple.Tuple) int64                              { return 0 }
func (discardOp) SplitMerge(ctx *TaskCtx, k tuple.Key, delta, freq, mem int64) {}

// sizeOf returns S(k, w), key k's live state size in s.
func sizeOf(s *state.Store, k tuple.Key) int64 {
	var n int64
	for _, e := range s.Entries(k) {
		n += e.Size
	}
	return n
}

// Stage accessors only this package's tests read.

// CtxOf returns task d's execution context, for tests that inspect
// operator state at barriers.
func (s *Stage) CtxOf(d int) *TaskCtx { return s.tasks[d].ctx }

// noopHook is a snapshot hook that reads nothing: an engine's stage
// observes per-key statistics only while it has a hook.
func noopHook(*Engine, int, *stats.Snapshot) *Rebalance { return nil }

// observeAll registers a hook on every stage of e that keeps the stage's
// latest snapshot in the returned slice, so a test can compare the
// snapshots of a controller-less stage.
func observeAll(e *Engine) []*stats.Snapshot {
	last := make([]*stats.Snapshot, len(e.Stages))
	for si := range e.Stages {
		e.AddSnapshotHook(si, func(_ *Engine, si int, snap *stats.Snapshot) *Rebalance {
			last[si] = snap
			return nil
		})
	}
	return last
}

// Router returns the stage's input router.
func (s *Stage) Router() Router { return s.router }

// StateWire reports whether serialized-state migration is selected.
func (s *Stage) StateWire() bool { return s.stateWire }

func TestStageRoutesByAssignment(t *testing.T) {
	st := statefulStage(4, 1)
	defer st.Stop()
	asg := st.AssignmentRouter().Assignment()
	for k := tuple.Key(0); k < 200; k++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(k, nil)})
	}
	st.Barrier()
	for k := tuple.Key(0); k < 200; k++ {
		want := asg.Dest(k)
		if got := sizeOf(st.StoreOf(want), k); got != 1 {
			t.Fatalf("key %d state on instance %d = %d, want 1", k, want, got)
		}
	}
}

func TestStageArrivalAccounting(t *testing.T) {
	st := statefulStage(2, 1)
	defer st.Stop()
	for i := 0; i < 100; i++ {
		st.FeedBatch([]tuple.Tuple{{Key: tuple.Key(i), Cost: 2, StateSize: 1}})
	}
	st.Barrier()
	var cost, n int64
	for d := 0; d < 2; d++ {
		cost += st.ArrivedCost()[d]
		n += st.ArrivedTuples()[d]
	}
	if cost != 200 || n != 100 {
		t.Fatalf("arrived cost/tuples = %d/%d, want 200/100", cost, n)
	}
}

func TestEndIntervalSnapshot(t *testing.T) {
	st := statefulStage(3, 2)
	defer st.Stop()
	for i := 0; i < 300; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(i%30), nil)})
	}
	st.Barrier()
	snap := st.EndInterval(0)
	if snap.ND != 3 {
		t.Fatalf("snapshot ND = %d", snap.ND)
	}
	if len(snap.Keys) != 30 {
		t.Fatalf("snapshot keys = %d, want 30", len(snap.Keys))
	}
	if snap.TotalCost() != 300 {
		t.Fatalf("snapshot cost = %d, want 300", snap.TotalCost())
	}
	asg := st.AssignmentRouter().Assignment()
	for _, ks := range snap.Keys {
		if ks.Dest != asg.Dest(ks.Key) {
			t.Fatalf("key %d snapshot dest %d ≠ assignment %d", ks.Key, ks.Dest, asg.Dest(ks.Key))
		}
		if ks.Hash != asg.HashDest(ks.Key) {
			t.Fatalf("key %d snapshot hash wrong", ks.Key)
		}
	}
	// Arrival accounting reset.
	for d := 0; d < 3; d++ {
		if st.ArrivedCost()[d] != 0 {
			t.Fatal("EndInterval did not reset arrivals")
		}
	}
}

func TestApplyPlanMigratesState(t *testing.T) {
	st := statefulStage(2, 3)
	defer st.Stop()
	k := tuple.Key(42)
	for i := 0; i < 10; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(k, i)})
	}
	st.Barrier()
	st.EndInterval(0)
	asg := st.AssignmentRouter().Assignment()
	src := asg.Dest(k)
	dst := 1 - src

	tab := route.NewTable()
	tab.Put(k, dst)
	plan := &balance.Plan{
		Table:    tab,
		Moved:    []tuple.Key{k},
		MoveDest: map[tuple.Key]int{k: dst},
	}
	moved, err := st.ApplyPlan(plan)
	if err != nil {
		t.Fatalf("ApplyPlan: %v", err)
	}
	if moved != 10 {
		t.Fatalf("ApplyPlan moved %d state units, want 10", moved)
	}
	if sizeOf(st.StoreOf(src), k) != 0 {
		t.Fatal("source retains state after migration")
	}
	if sizeOf(st.StoreOf(dst), k) != 10 {
		t.Fatalf("dest state = %d, want 10", sizeOf(st.StoreOf(dst), k))
	}
	// New tuples follow the new assignment.
	st.FeedBatch([]tuple.Tuple{tuple.New(k, "post")})
	st.Barrier()
	if sizeOf(st.StoreOf(dst), k) != 11 {
		t.Fatal("post-migration tuple did not follow routing table")
	}
	// Migration penalty charged to both endpoints.
	if st.MigPenalty[src] != 10 || st.MigPenalty[dst] != 10 {
		t.Fatalf("migration penalties = %v", st.MigPenalty)
	}
}

func TestScaleOutPreservesStateAndCorrectness(t *testing.T) {
	st := statefulStage(3, 2)
	defer st.Stop()
	for i := 0; i < 500; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(i%100), nil)})
	}
	st.Barrier()
	st.EndInterval(0)
	var before int64
	for d := 0; d < 3; d++ {
		before += st.StoreOf(d).TotalSize()
	}
	moved, err := st.ScaleOut()
	if err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	if st.Instances() != 4 {
		t.Fatalf("instances = %d after ScaleOut", st.Instances())
	}
	var after int64
	for d := 0; d < 4; d++ {
		after += st.StoreOf(d).TotalSize()
	}
	if after != before {
		t.Fatalf("state volume changed across scale-out: %d → %d", before, after)
	}
	if moved == 0 {
		t.Fatal("scale-out moved no state; ring growth must remap some keys")
	}
	// Every key's state must live where the new assignment routes it.
	asg := st.AssignmentRouter().Assignment()
	for k := tuple.Key(0); k < 100; k++ {
		home := asg.Dest(k)
		for d := 0; d < 4; d++ {
			if d != home && sizeOf(st.StoreOf(d), k) != 0 {
				t.Fatalf("key %d has state on %d but routes to %d", k, d, home)
			}
		}
	}
}

func TestEngineThroughputBalancedVsSkewed(t *testing.T) {
	// Uniform keys: throughput ≈ budget. All-hot-key skew: the single
	// owning task caps throughput near capacity (budget/nd), and
	// backpressure throttles emission.
	mkEngine := func(spout Spout) *Engine {
		st := statefulStage(4, 1)
		cfg := DefaultConfig()
		cfg.Budget = 4000
		return NewBatch(BatchSpout(spout), cfg, st)
	}
	var u uint64
	uniform := mkEngine(func() tuple.Tuple {
		u++
		return tuple.New(tuple.Key(u%1000), nil)
	})
	defer uniform.Stop()
	uniform.Run(5)
	balancedThr := uniform.Recorder.Series[4].Throughput

	skewed := mkEngine(func() tuple.Tuple { return tuple.New(7, nil) })
	defer skewed.Stop()
	skewed.Run(5)
	skewThr := skewed.Recorder.Series[4].Throughput

	if balancedThr < 3500 {
		t.Fatalf("balanced throughput %v, want near 4000", balancedThr)
	}
	if skewThr > balancedThr/2 {
		t.Fatalf("all-on-one-key throughput %v not limited by single task (balanced %v)", skewThr, balancedThr)
	}
	if skewed.Recorder.Series[4].LatencyMs <= uniform.Recorder.Series[4].LatencyMs {
		t.Fatal("skewed latency not above balanced latency")
	}
	// Backpressure must have throttled the skewed spout.
	if skewed.Recorder.Series[4].Emitted >= 4000 {
		t.Fatal("spout never throttled despite hopeless backlog")
	}
}

func TestEngineSkewnessMetric(t *testing.T) {
	st := statefulStage(2, 1)
	cfg := DefaultConfig()
	cfg.Budget = 1000
	e := NewBatch(BatchSpout(func() tuple.Tuple { return tuple.New(3, nil) }), cfg, st)
	defer e.Stop()
	e.Run(1)
	if got := e.Recorder.Series[0].Skewness; got != 2 {
		t.Fatalf("one-key-two-instances skewness = %v, want 2", got)
	}
}

func TestEngineMultiStagePipeline(t *testing.T) {
	// Stage 0 emits a derived tuple per input; stage 1 counts them.
	fwd := OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) {
		out := tuple.New(tp.Key, nil)
		ctx.Emit(out)
	})
	s0 := NewStage("map", 2, func(int) Operator { return fwd }, 1, newAsgRouter(2))
	s1 := NewStage("count", 2, func(int) Operator { return StatefulCount }, 1, newAsgRouter(2))
	cfg := DefaultConfig()
	cfg.Budget = 500
	var n uint64
	e := NewBatch(BatchSpout(func() tuple.Tuple {
		n++
		return tuple.New(tuple.Key(n%50), nil)
	}), cfg, s0, s1)
	defer e.Stop()
	e.Run(1)
	var total int64
	for d := 0; d < 2; d++ {
		total += s1.StoreOf(d).TotalSize()
	}
	if total != 500 {
		t.Fatalf("stage-1 received %d tuples, want 500", total)
	}
}

func TestEngineOnSnapshotHookSeesLoad(t *testing.T) {
	st := statefulStage(2, 1)
	cfg := DefaultConfig()
	cfg.Budget = 100
	var sawKeys int
	e := NewBatch(BatchSpout(func() tuple.Tuple { return tuple.New(tuple.Key(rand.Intn(10)), nil) }), cfg, st)
	defer e.Stop()
	e.AddSnapshotHook(0, func(_ *Engine, si int, snap *stats.Snapshot) *Rebalance {
		sawKeys = len(snap.Keys)
		return nil
	})
	e.Run(1)
	if sawKeys == 0 {
		t.Fatal("snapshot hook saw no keys")
	}
}

func TestDiscardAndStatefulCountOperators(t *testing.T) {
	st := NewStage("d", 1, func(int) Operator { return Discard }, 1, newAsgRouter(1))
	defer st.Stop()
	st.FeedBatch([]tuple.Tuple{tuple.New(1, nil)})
	st.Barrier()
	if st.StoreOf(0).TotalSize() != 0 {
		t.Fatal("Discard kept state")
	}
	if snap := st.EndInterval(0); len(snap.Keys) != 1 || snap.Keys[0].Freq != 1 {
		t.Fatalf("Discard did not account the tuple: %+v", snap.Keys)
	}
}

func TestTaskCtxEmit(t *testing.T) {
	var ctx TaskCtx
	ctx.Emit(tuple.New(1, nil))
	ctx.Emit(tuple.New(2, nil))
	if len(ctx.out) != 2 {
		t.Fatal("Emit did not collect tuples")
	}
}

func TestStatefulCountKeepsWindowState(t *testing.T) {
	st := NewStage("c", 1, func(int) Operator { return StatefulCount }, 2, newAsgRouter(1))
	defer st.Stop()
	st.FeedBatch([]tuple.Tuple{{Key: 5, Value: "x", Cost: 1, StateSize: 3}})
	st.Barrier()
	if got := sizeOf(st.StoreOf(0), 5); got != 3 {
		t.Fatalf("state size = %d, want 3", got)
	}
	_ = state.Entry{} // keep import for clarity of intent
}
