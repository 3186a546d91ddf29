package topology_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/balance"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/pkgpart"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Pinned equivalence: a topology the builder declares must behave
// bit-identically to the same topology hand-wired from engine.NewStage,
// engine.New and controller.New — interval metric series, final harvest
// snapshots and the controllers' routing tables all equal. The
// hand-wired forms below replicate what the examples and core.NewSystem
// did before the builder existed.

// assertSeriesEqual compares two interval series field by field,
// zeroing PlanMs (measured wall-clock plan-generation time, real
// nondeterminism rather than a data-plane quantity).
func assertSeriesEqual(t *testing.T, want, got []metrics.Interval) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("series lengths differ: %d ≠ %d", len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		a.PlanMs, b.PlanMs = 0, 0
		if a != b {
			t.Fatalf("interval %d diverges:\nhand-wired %+v\nbuilder    %+v", i, a, b)
		}
	}
}

// assertSnapshotsEqual compares the final per-stage harvest snapshots.
func assertSnapshotsEqual(t *testing.T, want, got []*stats.Snapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("snapshot counts differ: %d ≠ %d", len(want), len(got))
	}
	for si := range want {
		a, b := want[si], got[si]
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
func assertTablesEqual(t *testing.T, want, got *engine.Stage) {
	t.Helper()
	ta := want.AssignmentRouter().Assignment().Table()
	tb := got.AssignmentRouter().Assignment().Table()
	if ta.Len() != tb.Len() {
		t.Fatalf("routing tables differ in size: %d ≠ %d", ta.Len(), tb.Len())
	}
	for _, k := range ta.Keys() {
		da, _ := ta.Lookup(k)
		db, ok := tb.Lookup(k)
		if !ok || da != db {
			t.Fatalf("routing entry for key %d: hand-wired → %d, builder → %d (present=%v)", k, da, db, ok)
		}
	}
}

// TestBuilderSingleStageMatchesHandWired pins the single-stage Mixed
// system: builder output vs the engine.NewStage + engine.New +
// controller.New wiring core.NewSystem used to spell out.
func TestBuilderSingleStageMatchesHandWired(t *testing.T) {
	const intervals = 10
	mkGen := func() *workload.ZipfStream { return workload.NewZipfStream(5000, 1.0, 0.8, 8000, 23) }

	// Hand-wired.
	hwGen := mkGen()
	hwStage := engine.NewStage("operator", 6,
		func(int) engine.Operator { return engine.StatefulCount }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(6)))
	hwCfg := engine.DefaultConfig()
	hwCfg.Budget = 8000
	hw := engine.New(hwGen.Next, hwCfg, hwStage)
	hwCtl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	hwCtl.MinKeys = 32
	hw.OnSnapshot = hwCtl.Hook()
	hwAr := hwStage.AssignmentRouter()
	hw.AdvanceWorkload = func(int64) { hwGen.Advance(hwAr.Assignment()) }
	hw.Run(intervals)
	hw.Stop()

	// Builder.
	bGen := mkGen()
	sys := topology.New(topology.Spout(bGen.Next), topology.Budget(8000)).
		Stage("operator", func(int) engine.Operator { return engine.StatefulCount },
			topology.Instances(6),
			topology.WithAlgorithm(topology.AlgMixed),
			topology.Theta(0.08), topology.MinKeys(32)).
		Build()
	bAr := sys.Stage(0).AssignmentRouter()
	sys.Engine.AdvanceWorkload = func(int64) { bGen.Advance(bAr.Assignment()) }
	sys.Run(intervals)
	sys.Stop()

	assertSeriesEqual(t, hw.Recorder.Series, sys.Recorder().Series)
	assertSnapshotsEqual(t, hw.LastSnapshots(), sys.Engine.LastSnapshots())
	assertTablesEqual(t, hwStage, sys.Stage(0))
	if hwCtl.Rebalances() == 0 || hwCtl.Rebalances() != sys.Controller(0).Rebalances() {
		t.Fatalf("rebalances diverge (or none): hand-wired %d, builder %d",
			hwCtl.Rebalances(), sys.Controller(0).Rebalances())
	}
}

// TestBuilderQ5MatchesHandWired pins the 2-stage TPC-H Q5 topology
// under streaming transfer: the builder's pipelined-by-default wiring
// must reproduce the hand-wired engine.New(…, s0, s1) run exactly,
// rebalancing and FK drift included.
func TestBuilderQ5MatchesHandWired(t *testing.T) {
	const intervals = 8
	mkGen := func() *workload.TPCH {
		cfg := workload.DefaultTPCHConfig()
		cfg.Customers, cfg.Suppliers, cfg.OrderPool = 2000, 200, 800
		return workload.NewTPCH(cfg)
	}

	// Hand-wired, Pipeline set explicitly (the builder defaults to it
	// for ≥2 stages — that default is pinned separately below).
	hwGen := mkGen()
	hwJoins := ops.NewQ5JoinFleet(hwGen, 2)
	hwAggs := ops.NewNationRevenueFleet()
	s0 := engine.NewStage("q5join", 4, hwJoins.Factory, 2,
		engine.NewAssignmentRouter(topology.NewAssignment(4)))
	s1 := engine.NewStage("q5agg", 2, hwAggs.Factory, 2,
		engine.NewAssignmentRouter(topology.NewAssignment(2)))
	ecfg := engine.DefaultConfig()
	ecfg.Budget = 12000
	ecfg.Pipeline = true
	hw := engine.New(hwGen.Next, ecfg, s0, s1)
	hwCtl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	hwCtl.MinKeys = 32
	hw.OnSnapshot = hwCtl.Hook()
	hw.AdvanceWorkload = func(i int64) {
		if i%3 == 0 {
			hwGen.Advance()
		}
	}
	hw.Run(intervals)
	hw.Stop()

	// Builder.
	bGen := mkGen()
	bJoins := ops.NewQ5JoinFleet(bGen, 2)
	bAggs := ops.NewNationRevenueFleet()
	sys := topology.New(
		topology.Spout(bGen.Next),
		topology.Budget(12000),
		topology.AdvanceEach(func(i int64) {
			if i%3 == 0 {
				bGen.Advance()
			}
		}),
	).Stage("q5join", bJoins.Factory,
		topology.Instances(4), topology.Window(2),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.08), topology.MinKeys(32),
	).Stage("q5agg", bAggs.Factory,
		topology.Instances(2), topology.Window(2),
	).Build()
	if !sys.Engine.Cfg.Pipeline {
		t.Fatal("2-stage topology did not default to pipelined transfer")
	}
	sys.Run(intervals)
	sys.Stop()

	assertSeriesEqual(t, hw.Recorder.Series, sys.Recorder().Series)
	assertSnapshotsEqual(t, hw.LastSnapshots(), sys.Engine.LastSnapshots())
	assertTablesEqual(t, s0, sys.StageNamed("q5join"))
	if a, b := hwJoins.TotalJoined(), bJoins.TotalJoined(); a != b || a == 0 {
		t.Fatalf("join results diverge (or zero): hand-wired %d, builder %d", a, b)
	}
	for n := 0; n < len(workload.Regions)*workload.NationsPerRegion; n++ {
		if a, b := hwAggs.TotalRevenue(n), bAggs.TotalRevenue(n); a != b {
			t.Fatalf("nation %d revenue diverges: hand-wired %v, builder %v", n, a, b)
		}
	}
}

// TestBuilderPKGMatchesHandWired pins the PKG partial→merge topology:
// builder-native split-key routing (PKGRouting, resolved to the
// stage's instance count at Build time), the IntervalFlusher emission
// path, and a keyed merge stage — bit-identical to hand-wiring
// engine.PKGRouter over pkgpart directly.
func TestBuilderPKGMatchesHandWired(t *testing.T) {
	const intervals = 5
	mkSpout := func() engine.Spout {
		var seq uint64
		return func() tuple.Tuple {
			seq++
			return tuple.New(tuple.Key(seq%11), nil)
		}
	}

	hwParts := ops.NewPartialCountFleet()
	hwMerges := ops.NewMergeCountFleet()
	h0 := engine.NewStage("partial", 3, hwParts.Factory, 1,
		engine.PKGRouter{R: pkgpart.NewRouter(3)})
	h1 := engine.NewStage("merge", 2, hwMerges.Factory, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(2)))
	hw := engine.New(mkSpout(), engine.Config{
		Window: 1, Budget: 1100, MaxPendingFactor: 2, MigrationFactor: 1, Pipeline: true}, h0, h1)
	hw.Run(intervals)
	hw.Stop()

	bParts := ops.NewPartialCountFleet()
	bMerges := ops.NewMergeCountFleet()
	sys := topology.New(
		topology.Spout(mkSpout()),
		topology.Budget(1100),
		topology.MaxPending(2),
		topology.MigrationFactor(1),
	).Stage("partial", bParts.Factory,
		topology.Instances(3),
		topology.PKGRouting(),
	).Stage("merge", bMerges.Factory,
		topology.Instances(2),
	).Build()
	sys.Run(intervals)
	sys.Stop()

	assertSeriesEqual(t, hw.Recorder.Series, sys.Recorder().Series)
	assertSnapshotsEqual(t, hw.LastSnapshots(), sys.Engine.LastSnapshots())
	for k := tuple.Key(0); k < 11; k++ {
		a, b := hwMerges.TotalCount(k), bMerges.TotalCount(k)
		if a != b {
			t.Fatalf("merged count(%d) diverges: hand-wired %d, builder %d", k, a, b)
		}
		if a != int64(intervals)*100 {
			t.Fatalf("merged count(%d) = %d, want %d", k, a, int64(intervals)*100)
		}
	}
}

// TestPipelineDefaults pins the transfer-mode defaulting: single-stage
// topologies stay store-and-forward, multi-stage default to streaming,
// and both explicit options win over the default.
func TestPipelineDefaults(t *testing.T) {
	op := func(int) engine.Operator { return engine.Discard }
	one := topology.New().Stage("a", op, topology.Instances(2)).Build()
	defer one.Stop()
	if one.Engine.Cfg.Pipeline {
		t.Fatal("single-stage topology defaulted to pipelined transfer")
	}
	two := topology.New().
		Stage("a", op, topology.Instances(2)).
		Stage("b", op, topology.Instances(2)).Build()
	defer two.Stop()
	if !two.Engine.Cfg.Pipeline {
		t.Fatal("2-stage topology did not default to pipelined transfer")
	}
	sf := topology.New(topology.StoreAndForward()).
		Stage("a", op, topology.Instances(2)).
		Stage("b", op, topology.Instances(2)).Build()
	defer sf.Stop()
	if sf.Engine.Cfg.Pipeline {
		t.Fatal("StoreAndForward did not override the multi-stage default")
	}
	pl := topology.New(topology.Pipelined()).Stage("a", op, topology.Instances(2)).Build()
	defer pl.Stop()
	if !pl.Engine.Cfg.Pipeline {
		t.Fatal("Pipelined did not override the single-stage default")
	}
}

// TestPerStageCapacityAndPKGShave pins the per-stage capacity plumbing:
// explicit Capacity reaches the stage's slot of the performance model,
// other stages keep the Budget-derived default, and an AlgPKG stage
// pays the PKGOverhead shave exactly as core.NewSystem charged it.
func TestPerStageCapacityAndPKGShave(t *testing.T) {
	op := func(int) engine.Operator { return engine.Discard }
	sys := topology.New(topology.Budget(1000)).
		Stage("a", op, topology.Instances(2), topology.Capacity(77)).
		Stage("b", op, topology.Instances(2)).
		Build()
	defer sys.Stop()
	if got := sys.Engine.CapacityOf(0); got != 77 {
		t.Fatalf("stage a capacity = %d, want 77", got)
	}
	if got := sys.Engine.CapacityOf(1); got != 500 {
		t.Fatalf("stage b capacity = %d, want Budget/ND = 500", got)
	}

	pkg := topology.New(topology.Budget(1000)).
		Stage("p", op, topology.Instances(2), topology.WithAlgorithm(topology.AlgPKG)).
		Build()
	defer pkg.Stop()
	base := int64(1000) / 2
	want := int64(float64(base) / topology.PKGOverhead)
	if got := pkg.Engine.CapacityOf(0); got != want {
		t.Fatalf("PKG capacity = %d, want %d (shaved below 500)", got, want)
	}
	if pkg.Engine.Cfg.LatencyFloorMs != 10 {
		t.Fatalf("PKG latency floor = %v, want 10", pkg.Engine.Cfg.LatencyFloorMs)
	}
}

// TestTwoControllersRebalanceBothStages is the tentpole lift: one
// engine, two stages, each with its own independent Mixed controller,
// both rebalancing over a skewed fluctuating stream while the pipelined
// transfer and a 2-way spout fan-out keep every concurrency path hot.
// Run under -race (CI does) to stress pipelined flushes × two-stage
// plan application.
func TestTwoControllersRebalanceBothStages(t *testing.T) {
	gen := workload.NewZipfStream(2000, 1.0, 0.8, 8000, 31)
	var forwarded atomic.Int64
	fwd := func(int) engine.Operator {
		return engine.OperatorFunc(func(ctx *engine.TaskCtx, tp tuple.Tuple) {
			engine.StatefulCount.Process(ctx, tp)
			forwarded.Add(1)
			ctx.Emit(tuple.New(tp.Key, nil))
		})
	}
	sys := topology.New(
		topology.Spout(gen.Next),
		topology.Budget(8000),
		topology.Feeders(2),
	).Stage("upstream", fwd,
		topology.Instances(5),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.05), topology.MinKeys(16),
	).Stage("downstream", func(int) engine.Operator { return engine.StatefulCount },
		topology.Instances(4),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.05), topology.MinKeys(16),
	).Build()
	defer sys.Stop()
	ar := sys.Stage(0).AssignmentRouter()
	sys.Engine.AdvanceWorkload = func(int64) { gen.Advance(ar.Assignment()) }

	sys.Run(12)
	if n := sys.Controller(0).Rebalances(); n == 0 {
		t.Fatal("upstream controller never rebalanced a z=1 stream at θ=0.05")
	}
	if n := sys.Controller(1).Rebalances(); n == 0 {
		t.Fatal("downstream controller never rebalanced: the per-stage fan-out is not reaching stage 1")
	}
	if forwarded.Load() == 0 {
		t.Fatal("nothing flowed")
	}
	// The downstream stage's routing table reflects its own controller's
	// plans (non-empty), independent of upstream's.
	if sys.Stage(1).AssignmentRouter().Assignment().Table().Len() == 0 {
		t.Fatal("downstream routing table empty despite rebalances")
	}
}

// TestStageNamedAndControllerNamed covers the by-name accessors.
func TestStageNamedAndControllerNamed(t *testing.T) {
	op := func(int) engine.Operator { return engine.Discard }
	sys := topology.New().
		Stage("a", op, topology.Instances(2), topology.WithAlgorithm(topology.AlgMixed)).
		Stage("b", op, topology.Instances(3)).
		Build()
	defer sys.Stop()
	if st := sys.StageNamed("b"); st == nil || st.Instances() != 3 {
		t.Fatalf("StageNamed(b) = %v", sys.StageNamed("b"))
	}
	if sys.StageNamed("nope") != nil {
		t.Fatal("StageNamed on unknown name should be nil")
	}
	if sys.ControllerNamed("a") == nil {
		t.Fatal("stage a should carry a Mixed controller")
	}
	if sys.ControllerNamed("b") != nil {
		t.Fatal("stage b has no algorithm and should carry no controller")
	}
}

// TestPauseFreeDefaults pins which stages migrate live: exactly the
// assignment-routed ones, with no option involved — a plan applied to
// one goes through the generation-stamped sequencer, and a stage on any
// other router family (shuffle) refuses it.
func TestPauseFreeDefaults(t *testing.T) {
	op := func(int) engine.Operator { return engine.Discard }
	def := topology.New().
		Stage("a", op, topology.Instances(2)).
		Stage("sh", op, topology.Instances(2), topology.WithRouter(engine.NewShuffleRouter(2))).
		Build()
	defer def.Stop()
	plan := &balance.Plan{Table: route.NewTable(), MoveDest: map[tuple.Key]int{}}
	if _, err := def.Stage(0).ApplyPlan(plan, nil); err != nil {
		t.Fatalf("assignment-routed stage refused a plan: %v", err)
	}
	if def.Stage(0).AssignmentRouter().Assignment().Gen() == 0 {
		t.Fatal("the plan did not advance the routing generation")
	}
	if _, err := def.Stage(1).ApplyPlan(plan, nil); err == nil {
		t.Fatal("shuffle stage accepted a plan")
	}
}
