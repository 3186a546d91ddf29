package ops

import (
	"math"
	"testing"

	"repro/internal/balance"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Pinned equivalence tests of the streaming inter-stage transfer on the
// paper's real multi-stage topologies: the interval metric series, the
// harvest snapshots of every stage and the controller's routing table
// must reproduce a store-and-forward run bit-identically. (Downstream
// float aggregates are not compared — they are arrival-order-dependent
// sums — but every exhibit-relevant quantity is.)

// holdOp keeps every tuple of the interval and emits them all at the
// interval flush.
type holdOp struct{ held []tuple.Tuple }

func (h *holdOp) Process(_ *engine.TaskCtx, t tuple.Tuple) { h.held = append(h.held, t) }
func (h *holdOp) FlushInterval(ctx *engine.TaskCtx) {
	for _, t := range h.held {
		ctx.Emit(t)
	}
	h.held = h.held[:0]
}

// refStoreAndForward is the barrier transfer the engine used to have,
// as the reference the streaming transfer is pinned against: between
// the two stages sits a one-instance relay that holds the interval's
// tuples until its own close — which the cascading close reaches only
// after s0 has run to completion — so s1 gets its whole input at once,
// after upstream finished. The relay has unbounded capacity, so it
// never shows in the throttle; s1 is Stages[2] of the returned engine.
func refStoreAndForward(spout engine.Spout, cfg engine.Config, s0, s1 *engine.Stage) *engine.Engine {
	hold := engine.NewStage("hold", 1, func(int) engine.Operator { return &holdOp{} }, 1, engine.NewShuffleRouter(1))
	e := engine.NewBatch(engine.BatchSpout(spout), cfg, s0, hold, s1)
	e.SetStageCapacity(1, math.MaxInt64/2)
	return e
}

// newEngine assembles s0 → s1 under the streaming transfer, or under
// the store-and-forward reference, with a snapshot hook on every stage
// that keeps the stage's latest snapshot: a stage observes per-key
// statistics only while it has a hook, and the equivalence tests
// compare every stage's. The returned slice holds s0's and s1's.
func newEngine(ref bool, spout engine.Spout, cfg engine.Config, s0, s1 *engine.Stage) (*engine.Engine, []*stats.Snapshot) {
	var e *engine.Engine
	if ref {
		e = refStoreAndForward(spout, cfg, s0, s1)
	} else {
		e = engine.NewBatch(engine.BatchSpout(spout), cfg, s0, s1)
	}
	last := make([]*stats.Snapshot, 2)
	for si := range e.Stages {
		e.AddSnapshotHook(si, func(_ *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
			switch si {
			case 0:
				last[0] = snap
			case len(e.Stages) - 1:
				last[1] = snap
			}
			return nil
		})
	}
	return e, last
}

// assertSeriesEqual compares two interval series field by field,
// zeroing PlanMs (measured wall-clock plan-generation time, real
// nondeterminism rather than a data-plane quantity).
func assertSeriesEqual(t *testing.T, sf, pl []metrics.Interval) {
	t.Helper()
	if len(sf) != len(pl) {
		t.Fatalf("series lengths differ: %d ≠ %d", len(sf), len(pl))
	}
	for i := range sf {
		a, b := sf[i], pl[i]
		a.PlanMs, b.PlanMs = 0, 0
		if a != b {
			t.Fatalf("interval %d diverges:\nstore-and-forward %+v\npipelined         %+v", i, a, b)
		}
	}
}

// assertSnapshotsEqual compares the final per-stage harvest snapshots.
func assertSnapshotsEqual(t *testing.T, sf, pl []*stats.Snapshot) {
	t.Helper()
	for si := range sf {
		a, b := sf[si], pl[si]
		if len(a.Keys) != len(b.Keys) {
			t.Fatalf("stage %d snapshot sizes %d ≠ %d", si, len(b.Keys), len(a.Keys))
		}
		for i := range a.Keys {
			if a.Keys[i] != b.Keys[i] {
				t.Fatalf("stage %d snapshot entry %d: %+v ≠ %+v", si, i, b.Keys[i], a.Keys[i])
			}
		}
	}
}

// assertTablesEqual compares the routing tables two runs' controllers
// built: same rebalance decisions interval by interval.
func assertTablesEqual(t *testing.T, sf, pl *engine.Stage) {
	t.Helper()
	ta := sf.AssignmentRouter().Assignment().Table()
	tb := pl.AssignmentRouter().Assignment().Table()
	if ta.Len() != tb.Len() {
		t.Fatalf("routing tables differ in size: %d ≠ %d", ta.Len(), tb.Len())
	}
	for _, k := range ta.Keys() {
		da, _ := ta.Lookup(k)
		db, ok := tb.Lookup(k)
		if !ok || da != db {
			t.Fatalf("routing entry for key %d: store-and-forward → %d, pipelined → %d (present=%v)", k, da, db, ok)
		}
	}
}

// runQ5 drives the 2-stage Q5 topology (skewed windowed join under the
// Mixed controller → per-nation revenue aggregation) for n intervals,
// streaming or under the store-and-forward reference, and returns the
// engine (stopped), the join stage and the join fleet.
func runQ5(ref bool, n int) (*engine.Engine, []*stats.Snapshot, *engine.Stage, *Q5JoinFleet) {
	cfg := workload.DefaultTPCHConfig()
	cfg.Customers, cfg.Suppliers, cfg.OrderPool = 2000, 200, 800
	gen := workload.NewTPCH(cfg)
	joins := NewQ5JoinFleet(gen, 2)
	aggs := NewNationRevenueFleet()
	s0 := engine.NewStage("q5join", 4, joins.Factory, 2, asgRouter(4))
	s1 := engine.NewStage("q5agg", 2, aggs.Factory, 2, asgRouter(2))
	ecfg := engine.Config{Budget: 12000, MaxPendingFactor: 2, MigrationFactor: 1}
	e, snaps := newEngine(ref, gen.Next, ecfg, s0, s1)
	ctl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	ctl.MinKeys = 32
	e.AddSnapshotHook(0, directHook(ctl))
	e.AdvanceWorkload = func(i int64) {
		if i%3 == 0 {
			gen.Advance()
		}
	}
	e.Run(n)
	e.Stop()
	return e, snaps, s0, joins
}

// TestQ5PipelinedMatchesStoreAndForward pins the tentpole equivalence
// on the 2-stage TPC-H Q5 topology, rebalancing and FK drift included.
func TestQ5PipelinedMatchesStoreAndForward(t *testing.T) {
	const intervals = 8
	sf, sfSnaps, sfJoin, sfFleet := runQ5(true, intervals)
	pl, plSnaps, plJoin, plFleet := runQ5(false, intervals)

	assertSeriesEqual(t, sf.Recorder.Series, pl.Recorder.Series)
	assertSnapshotsEqual(t, sfSnaps, plSnaps)
	assertTablesEqual(t, sfJoin, plJoin)
	if a, b := sfFleet.TotalJoined(), plFleet.TotalJoined(); a != b {
		t.Fatalf("join results diverge: store-and-forward %d, pipelined %d", a, b)
	}
	if sfFleet.TotalJoined() == 0 {
		t.Fatal("Q5 join produced no results; equivalence is vacuous")
	}
}

// runPKG drives the 2-stage split-key counting topology (PKG-routed
// partial counts flushing per interval → keyed merge) for n intervals
// and returns the engine and the merge fleet.
func runPKG(ref bool, n int) (*engine.Engine, []*stats.Snapshot, *MergeCountFleet) {
	parts := NewPartialCountFleet()
	merges := NewMergeCountFleet()
	s0 := engine.NewStage("partial", 3, parts.Factory, 1,
		engine.NewPKGRouter(3))
	s1 := engine.NewStage("merge", 2, merges.Factory, 1, asgRouter(2))
	var seq uint64
	e, snaps := newEngine(ref, func() tuple.Tuple {
		seq++
		return tuple.New(tuple.Key(seq%11), nil)
	}, engine.Config{Budget: 1100, MaxPendingFactor: 2, MigrationFactor: 1}, s0, s1)
	e.Run(n)
	e.Stop()
	return e, snaps, merges
}

// TestPKGPipelinedMatchesStoreAndForward pins the tentpole equivalence
// on the PartialCount→MergeCount topology: the interval-flush emission
// path (IntervalFlusher hooks run inside the cascading close) must
// deliver exactly the partials a store-and-forward drain does, and the
// merged totals — integer sums, order-independent — must agree exactly.
func TestPKGPipelinedMatchesStoreAndForward(t *testing.T) {
	const intervals = 5
	sf, sfSnaps, sfMerges := runPKG(true, intervals)
	pl, plSnaps, plMerges := runPKG(false, intervals)

	assertSeriesEqual(t, sf.Recorder.Series, pl.Recorder.Series)
	assertSnapshotsEqual(t, sfSnaps, plSnaps)
	for k := tuple.Key(0); k < 11; k++ {
		a, b := sfMerges.TotalCount(k), plMerges.TotalCount(k)
		if a != b {
			t.Fatalf("merged count(%d) diverges: store-and-forward %d, pipelined %d", k, a, b)
		}
		if a != int64(intervals)*100 {
			t.Fatalf("merged count(%d) = %d, want %d", k, a, int64(intervals)*100)
		}
	}
}
