package topology_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/balance"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Pinned equivalence: a topology the builder declares must behave
// bit-identically to the same topology hand-wired from engine.NewStage,
// engine.NewBatch and controller.New — interval metric series, final harvest
// snapshots and the controllers' routing tables all equal. The
// hand-wired forms below replicate what the examples did before the
// builder existed, with the controller on the stage directly.

// lastSnapshots registers a hook on every stage of e that keeps the
// stage's latest snapshot in the returned slice: a stage observes
// per-key statistics only while it has a hook, so a test that compares
// a controller-less stage's snapshots registers this on both sides.
func lastSnapshots(e *engine.Engine) []*stats.Snapshot {
	last := make([]*stats.Snapshot, len(e.Stages))
	for si := range e.Stages {
		e.AddSnapshotHook(si, func(_ *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
			last[si] = snap
			return nil
		})
	}
	return last
}

// directHook is the direct path the builder's control loop is pinned
// against: the controller decides and applies on the stage itself, no
// protocol.
func directHook(ctl *controller.Controller) engine.SnapshotHook {
	return func(e *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
		return ctl.Maybe(e.Stages[si], snap)
	}
}

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
// system: builder output vs the engine.NewStage + engine.NewBatch +
// controller.New wiring spelled out.
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
	hw := engine.NewBatch(engine.BatchSpout(hwGen.Next), hwCfg, hwStage)
	hwCtl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	hwCtl.MinKeys = 32
	hw.AddSnapshotHook(0, directHook(hwCtl))
	hwSnaps := lastSnapshots(hw)
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
	bSnaps := lastSnapshots(sys.Engine)
	bAr := sys.Stage(0).AssignmentRouter()
	sys.Engine.AdvanceWorkload = func(int64) { bGen.Advance(bAr.Assignment()) }
	sys.Run(intervals)
	sys.Stop()

	assertSeriesEqual(t, hw.Recorder.Series, sys.Recorder().Series)
	assertSnapshotsEqual(t, hwSnaps, bSnaps)
	assertTablesEqual(t, hwStage, sys.Stage(0))
	if hwCtl.Rebalances() == 0 || hwCtl.Rebalances() != sys.Controller(0).Rebalances() {
		t.Fatalf("rebalances diverge (or none): hand-wired %d, builder %d",
			hwCtl.Rebalances(), sys.Controller(0).Rebalances())
	}
}

// TestBuilderQ5MatchesHandWired pins the 2-stage TPC-H Q5 topology: the
// builder's wiring must reproduce the hand-wired engine.NewBatch(…, s0, s1)
// run exactly, rebalancing and FK drift included.
func TestBuilderQ5MatchesHandWired(t *testing.T) {
	const intervals = 8
	mkGen := func() *workload.TPCH {
		cfg := workload.DefaultTPCHConfig()
		cfg.Customers, cfg.Suppliers, cfg.OrderPool = 2000, 200, 800
		return workload.NewTPCH(cfg)
	}

	// Hand-wired.
	hwGen := mkGen()
	hwJoins := ops.NewQ5JoinFleet(hwGen, 2)
	hwAggs := ops.NewNationRevenueFleet()
	s0 := engine.NewStage("q5join", 4, hwJoins.Factory, 2,
		engine.NewAssignmentRouter(topology.NewAssignment(4)))
	s1 := engine.NewStage("q5agg", 2, hwAggs.Factory, 2,
		engine.NewAssignmentRouter(topology.NewAssignment(2)))
	ecfg := engine.DefaultConfig()
	ecfg.Budget = 12000
	hw := engine.NewBatch(engine.BatchSpout(hwGen.Next), ecfg, s0, s1)
	hwCtl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	hwCtl.MinKeys = 32
	hw.AddSnapshotHook(0, directHook(hwCtl))
	hwSnaps := lastSnapshots(hw)
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
	bSnaps := lastSnapshots(sys.Engine)
	sys.Run(intervals)
	sys.Stop()

	assertSeriesEqual(t, hw.Recorder.Series, sys.Recorder().Series)
	assertSnapshotsEqual(t, hwSnaps, bSnaps)
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

// TestBuilderPKGMatchesHandWired pins the PKG split→count topology:
// WithAlgorithm(AlgPKG) on the forwarding stage (split-key routing
// sized to the stage's instance count, the PKGOverhead capacity shave
// and, as the target, the merge-period latency floor) and a keyed count
// stage behind it — bit-identical to hand-wiring engine.NewPKGRouter
// with the same model.
func TestBuilderPKGMatchesHandWired(t *testing.T) {
	const intervals = 5
	mkSpout := func() engine.Spout {
		var seq uint64
		return func() tuple.Tuple {
			seq++
			return tuple.New(tuple.Key(seq%11), nil)
		}
	}
	fwd := func(int) engine.Operator {
		return engine.OperatorFunc(func(ctx *engine.TaskCtx, tp tuple.Tuple) { ctx.Emit(tp) })
	}

	hwCounts := ops.NewWordCountFleet()
	h0 := engine.NewStage("split", 3, fwd, 1, engine.NewPKGRouter(3))
	h1 := engine.NewStage("count", 2, hwCounts.Factory, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(2)))
	hw := engine.NewBatch(engine.BatchSpout(mkSpout()), engine.Config{
		Budget: 1100, MaxPendingFactor: 2, MigrationFactor: 0.5, LatencyFloorMs: 10}, h0, h1)
	base := int64(1100 / 3)
	hw.SetStageCapacity(0, int64(float64(base)/topology.PKGOverhead))
	hwSnaps := lastSnapshots(hw)
	hw.Run(intervals)
	hw.Stop()

	bCounts := ops.NewWordCountFleet()
	sys := topology.New(
		topology.Spout(mkSpout()),
		topology.Budget(1100),
		topology.MaxPending(2),
	).Stage("split", fwd,
		topology.Instances(3),
		topology.WithAlgorithm(topology.AlgPKG),
	).Stage("count", bCounts.Factory,
		topology.Instances(2),
	).Build()
	bSnaps := lastSnapshots(sys.Engine)
	sys.Run(intervals)
	sys.Stop()

	assertSeriesEqual(t, hw.Recorder.Series, sys.Recorder().Series)
	assertSnapshotsEqual(t, hwSnaps, bSnaps)
	for k := tuple.Key(0); k < 11; k++ {
		a, b := hwCounts.TotalCount(k), bCounts.TotalCount(k)
		if a != b {
			t.Fatalf("count(%d) diverges: hand-wired %d, builder %d", k, a, b)
		}
		if a != int64(intervals)*100 {
			t.Fatalf("count(%d) = %d, want %d", k, a, int64(intervals)*100)
		}
	}
}

// TestPerStageCapacityAndPKGShave pins the per-stage capacity plumbing:
// explicit Capacity reaches the stage's slot of the performance model,
// other stages keep the Budget-derived default, and an AlgPKG stage
// pays the PKGOverhead shave.
func TestPerStageCapacityAndPKGShave(t *testing.T) {
	op := func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }
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
// both rebalancing over a skewed fluctuating stream while the streaming
// transfer keeps the upstream tasks sending into the downstream stage
// concurrently. Run under -race (CI does) to stress task-goroutine
// flushes × two-stage plan application.
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
	op := func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }
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

// TestPauseFreeDefaults pins which stages can migrate: exactly the
// assignment-routed ones, with no option involved — a plan applied to
// one publishes a new assignment, and a stage on any other router
// family (shuffle) refuses it.
func TestPauseFreeDefaults(t *testing.T) {
	op := func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }
	def := topology.New().
		Stage("a", op, topology.Instances(2)).
		Stage("sh", op, topology.Instances(2), topology.WithAlgorithm(topology.AlgIdeal)).
		Build()
	defer def.Stop()
	plan := &balance.Plan{Table: route.NewTable(), MoveDest: map[tuple.Key]int{}}
	before := def.Stage(0).AssignmentRouter().Assignment()
	if _, err := def.Stage(0).ApplyPlan(plan); err != nil {
		t.Fatalf("assignment-routed stage refused a plan: %v", err)
	}
	if def.Stage(0).AssignmentRouter().Assignment() == before {
		t.Fatal("the plan did not publish a new assignment")
	}
	if _, err := def.Stage(1).ApplyPlan(plan); err == nil {
		t.Fatal("shuffle stage accepted a plan")
	}
}

// The tests below pin what a single-operator system — the paper's own
// setting — gets from the builder: the Tab. II defaults, every
// algorithm's planner and router, the knobs that must reach the
// controller, the stores and the engine, and the equivalences between
// the ways of feeding it.

// countStage builds the one-operator system: a StatefulCount stage
// fed by gen.
func countStage(gen *workload.ZipfStream, budget int64, opts ...topology.StageOption) *topology.System {
	return topology.New(topology.Spout(gen.Next), topology.Budget(budget)).
		Stage("operator", func(int) engine.Operator { return engine.StatefulCount }, opts...).
		Build()
}

// windowOf feeds stage 0 of sys one tuple of key k, which the spout
// never draws, into the next interval and returns the stage's window:
// how many closes, that interval's own included, its state outlives.
func windowOf(sys *topology.System, k tuple.Key) int {
	st := sys.Stage(0)
	st.FeedBatch([]tuple.Tuple{tuple.New(k, nil)})
	st.Barrier()
	n := 0
	for ; n < 10 && len(st.StoreOf(st.AssignmentRouter().Assignment().Dest(k)).Entries(k)) > 0; n++ {
		sys.Run(1)
	}
	return n - 1
}

func TestDefaultsMatchTableII(t *testing.T) {
	if topology.DefInstances != 10 || topology.DefWindow != 1 || topology.DefTheta != 0.08 ||
		topology.DefTableMax != 3000 || topology.DefBeta != 1.5 || topology.DefBudget != 10000 {
		t.Fatal("builder defaults drifted from Tab. II")
	}
	sys := countStage(workload.NewZipfStream(100, 0.85, 0, 100, 1), 0,
		topology.WithAlgorithm(topology.AlgMixed))
	defer sys.Stop()
	if nd, w := sys.Stage(0).Instances(), windowOf(sys, 1000); nd != 10 || w != 1 {
		t.Fatalf("default stage has %d instances, window %d", nd, w)
	}
	want := balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5}
	if got := sys.Controller(0).Cfg; got != want || sys.Engine.Cfg.Budget != 10000 {
		t.Fatalf("default controller config %+v, budget %d", got, sys.Engine.Cfg.Budget)
	}
}

func TestPlannerForCoversAllAlgorithms(t *testing.T) {
	for _, a := range []topology.Algorithm{topology.AlgMixed, topology.AlgMixedBF, topology.AlgMinTable,
		topology.AlgMinMig, topology.AlgLLFD, topology.AlgSimple, topology.AlgCompact, topology.AlgReadj} {
		if topology.PlannerFor(a, 0, 0) == nil {
			t.Fatalf("no planner for %s", a)
		}
	}
	for _, a := range []topology.Algorithm{topology.AlgStorm, topology.AlgPKG, topology.AlgIdeal} {
		if topology.PlannerFor(a, 0, 0) != nil {
			t.Fatalf("planner for migration-free scheme %s", a)
		}
	}
}

func TestPlannerForPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm did not panic")
		}
	}()
	topology.PlannerFor("bogus", 0, 0)
}

func TestUnboundedTableReachesController(t *testing.T) {
	sys := countStage(workload.NewZipfStream(100, 0.85, 0, 100, 1), 100,
		topology.Instances(2), topology.WithAlgorithm(topology.AlgMixed), topology.TableMax(-1))
	defer sys.Stop()
	if got := sys.Controller(0).Cfg.TableMax; got != 0 {
		t.Fatalf("negative TableMax mapped to %d, want 0 (unbounded)", got)
	}
}

func TestStormBaselineNeverRebalances(t *testing.T) {
	sys := countStage(workload.NewZipfStream(5000, 0.85, 1.0, 4000, 1), 4000,
		topology.Instances(4), topology.WithAlgorithm(topology.AlgStorm))
	defer sys.Stop()
	sys.Run(5)
	if sys.Controller(0) != nil || sys.Loop(0) != nil {
		t.Fatal("Storm baseline has a controller")
	}
	if sys.Stage(0).AssignmentRouter().Assignment().Table().Len() != 0 {
		t.Fatal("Storm baseline grew a routing table")
	}
}

func TestPKGAndIdealExposeNoPartitionFunction(t *testing.T) {
	for _, alg := range []topology.Algorithm{topology.AlgPKG, topology.AlgIdeal} {
		gen := workload.NewZipfStream(1000, 0.85, 0, 1000, 2)
		sys := topology.New(topology.Spout(gen.Next), topology.Budget(1000)).
			Stage("operator", func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) },
				topology.Instances(4), topology.WithAlgorithm(alg)).
			Build()
		sys.Run(2)
		if sys.Stage(0).AssignmentRouter() != nil {
			t.Fatalf("%s should not expose a key-deterministic destination", alg)
		}
		sys.Stop()
	}
}

func TestMixedBeatsStormOnSkewedThroughput(t *testing.T) {
	// The headline claim, end to end: on a skewed fluctuating stream,
	// Mixed sustains higher throughput and lower latency than hash-only.
	run := func(alg topology.Algorithm) (float64, float64) {
		// Discriminating regime: strong skew (z = 1) over few keys, so
		// the hot keys' hash placement dominates instance load — the
		// imbalance mixed routing exists to fix (Fig. 7(b)).
		gen := workload.NewZipfStream(500, 1.0, 0.5, 8000, 3)
		sys := countStage(gen, 8000,
			topology.Instances(8), topology.WithAlgorithm(alg), topology.MinKeys(10))
		defer sys.Stop()
		ar := sys.Stage(0).AssignmentRouter()
		sys.Engine.AdvanceWorkload = func(int64) { gen.Advance(ar.Assignment()) }
		sys.Run(20)
		var thr, lat float64
		for _, m := range sys.Recorder().Series[10:] {
			thr += m.Throughput
			lat += m.LatencyMs
		}
		return thr / 10, lat / 10
	}
	stormThr, stormLat := run(topology.AlgStorm)
	mixedThr, mixedLat := run(topology.AlgMixed)
	if mixedThr <= stormThr {
		t.Fatalf("Mixed throughput %.0f not above Storm %.0f", mixedThr, stormThr)
	}
	if mixedLat >= stormLat {
		t.Fatalf("Mixed latency %.1f not below Storm %.1f", mixedLat, stormLat)
	}
}

func TestNewAssignmentPureHash(t *testing.T) {
	a := topology.NewAssignment(8)
	if a.Table().Len() != 0 || a.Instances() != 8 {
		t.Fatalf("NewAssignment = table %d, nd %d", a.Table().Len(), a.Instances())
	}
}

func TestSpoutBatchMatchesPerTuple(t *testing.T) {
	// The batch-spout wiring must reproduce the per-tuple system's
	// metrics exactly when fed the same generator sequence.
	run := func(batch bool) []metrics.Interval {
		gen := workload.NewZipfStream(5000, 0.85, 0, 5000, 21)
		spout := topology.Spout(gen.Next)
		if batch {
			spout = topology.SpoutBatch(gen.NextBatch)
		}
		sys := topology.New(spout, topology.Budget(5000)).
			Stage("operator", func(int) engine.Operator { return engine.StatefulCount },
				topology.Instances(6), topology.WithAlgorithm(topology.AlgMixed), topology.MinKeys(32)).
			Build()
		defer sys.Stop()
		sys.Run(6)
		return sys.Recorder().Series
	}
	assertSeriesEqual(t, run(false), run(true))
}

func TestWindowPropagatesToStores(t *testing.T) {
	sys := countStage(workload.NewZipfStream(50, 0.85, 0, 100, 2), 100,
		topology.Instances(2), topology.Window(4))
	defer sys.Stop()
	if w := windowOf(sys, 1000); w != 4 {
		t.Fatalf("state survived %d intervals, want the window's 4", w)
	}
}
