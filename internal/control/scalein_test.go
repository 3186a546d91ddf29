package control_test

import (
	"sync"
	"testing"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/longterm"
	"repro/internal/protocol"
	"repro/internal/route"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// countingFleet is a stateful counting sink whose per-instance totals
// survive instance retirement, so zero-tuple-loss is checkable after a
// live scale-in. Each operator instance is goroutine-confined; the
// fleet map itself is guarded for concurrent Factory calls (scale-out
// can create instances mid-run from the driver).
type countingFleet struct {
	mu  sync.Mutex
	ops []*countingOp
}

type countingOp struct{ n int64 }

func (c *countingOp) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	c.n++
	ctx.Store.Add(t.Key, state.Entry{Value: int64(1), Size: 1})
}

func (c *countingOp) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	c.n += int64(len(ts))
	for i := range ts {
		ctx.Store.Add(ts[i].Key, state.Entry{Value: int64(1), Size: 1})
	}
}

func (f *countingFleet) factory(int) engine.Operator {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := &countingOp{}
	f.ops = append(f.ops, op)
	return op
}

func (f *countingFleet) total() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var s int64
	for _, op := range f.ops {
		s += op.n
	}
	return s
}

// scaleInStages declares the stress topology's data plane: a shuffle
// parse stage streaming into a counted sink, which takes countOpts on
// top of its size — a 2-stage system whose *non-target* downstream
// stage resizes live.
func scaleInStages(fleet *countingFleet, countOpts ...topology.StageOption) *topology.System {
	gen := workload.NewZipfStream(600, 0.9, 0.5, 2000, 77)
	fwd := engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
		ctx.Emit(tuple.New(t.Key, nil))
	})
	return topology.New(topology.Spout(gen.Next), topology.Budget(2000)).
		Stage("parse", func(int) engine.Operator { return fwd },
			topology.Instances(4),
			topology.Capacity(4000),
			topology.Target(),
		).
		Stage("count", fleet.factory, append([]topology.StageOption{
			topology.Instances(6),
			topology.Capacity(2000), // 2000 tuples over 6×2000: ~17% utilization
		}, countOpts...)...).
		Build()
}

// buildScaleInTopology is the stress topology as the builder manages
// it: the counted sink Mixed-rebalanced, its control loop carrying the
// autoscaler.
func buildScaleInTopology(fleet *countingFleet, scaler *longterm.AutoScaler) *topology.System {
	return scaleInStages(fleet,
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.08), topology.MinKeys(32),
		topology.WithPolicy(scaler))
}

// TestScaleInLivePipelined is the acceptance stress (run under -race
// in CI): sustained low utilization must trigger live ScaleIn on the
// pipelined 2-stage topology's downstream stage, with zero tuple loss
// and every migrated key landing on a surviving instance.
func TestScaleInLivePipelined(t *testing.T) {
	fleet := &countingFleet{}
	scaler := &longterm.AutoScaler{Detector: longterm.NewDetector()}
	sys := buildScaleInTopology(fleet, scaler)
	defer sys.Stop()

	const intervals = 30
	sys.Run(intervals)

	count := sys.StageNamed("count")
	if scaler.ScaleIns == 0 {
		t.Fatalf("no scale-in fired in %d idle intervals (util %.2f)", intervals, scaler.Detector.Utilization())
	}
	if got := count.Instances(); got >= 6 || got < 1 {
		t.Fatalf("count stage at %d instances, want within [1, 6)", got)
	}

	// Zero tuple loss: every tuple the spout emitted crossed both
	// stages and was counted — including tuples processed by instances
	// that have since retired.
	var emitted int64
	for _, m := range sys.Recorder().Series {
		emitted += m.Emitted
	}
	count.Barrier()
	if got := fleet.total(); got != emitted {
		t.Fatalf("counted %d of %d emitted tuples across the scale-in", got, emitted)
	}

	// Every key still holding state routes to a surviving instance.
	ar := count.AssignmentRouter()
	for _, k := range count.LiveKeys() {
		if d := ar.Assignment().Dest(k); d >= count.Instances() {
			t.Fatalf("key %d routed to retired instance %d (have %d)", k, d, count.Instances())
		}
	}
	// The interval metrics recorded the scale events.
	var ins int
	for _, m := range sys.Recorder().Series {
		ins += m.ScaleIns
	}
	// The scaler manages the non-target stage, so the target stage's
	// series does not carry its events; the policy history is the
	// record. (Documented: metrics follow the target stage.)
	if ins != 0 {
		t.Fatalf("target-stage series recorded %d scale-ins belonging to the count stage", ins)
	}
	if len(scaler.History) == 0 {
		t.Fatal("autoscaler history empty despite applied scale-ins")
	}
}

// TestScaleInLocalEqualsWire pins the two transports against each
// other on the full elastic scenario — the builder's in-process loop
// against the same policies hand-wired over the framed pipe:
// identical series, identical final instance counts, identical routing
// tables, identical applied histories.
func TestScaleInLocalEqualsWire(t *testing.T) {
	locFleet := &countingFleet{}
	locScaler := &longterm.AutoScaler{Detector: longterm.NewDetector()}
	loc := buildScaleInTopology(locFleet, locScaler)
	defer loc.Stop()
	locSnaps := lastSnapshots(loc.Engine)
	loc.Run(30)

	wFleet := &countingFleet{}
	wScaler := &longterm.AutoScaler{Detector: longterm.NewDetector()}
	wCtl := mkController() // the builder's controller for AlgMixed, Theta(0.08), MinKeys(32)
	w := scaleInStages(wFleet)
	defer w.Stop()
	defer framedLoop(w.Engine, 1, []control.Policy{wCtl, wScaler})()
	wSnaps := lastSnapshots(w.Engine)
	w.Run(30)

	sameSeries(t, "local-vs-wire", loc.Recorder().Series, w.Recorder().Series)
	sameSnapshots(t, "local-vs-wire", locSnaps, wSnaps)
	sameTables(t, "local-vs-wire", loc.StageNamed("count"), w.StageNamed("count"))
	if a, b := loc.StageNamed("count").Instances(), w.StageNamed("count").Instances(); a != b {
		t.Fatalf("instance counts diverged: %d vs %d", a, b)
	}
	if locScaler.ScaleIns == 0 || locScaler.ScaleIns != wScaler.ScaleIns || locScaler.ScaleOuts != wScaler.ScaleOuts {
		t.Fatalf("scale histories diverged: in %d/%d out %d/%d",
			locScaler.ScaleIns, wScaler.ScaleIns, locScaler.ScaleOuts, wScaler.ScaleOuts)
	}
	if a, b := loc.Rebalances(), wCtl.Rebalances(); a != b {
		t.Fatalf("rebalance counts diverged: %d vs %d", a, b)
	}
	loc.StageNamed("count").Barrier()
	w.StageNamed("count").Barrier()
	if a, b := locFleet.total(), wFleet.total(); a != b {
		t.Fatalf("counted totals diverged: %d vs %d", a, b)
	}
}

// scaleInAlways is a hostile policy: it demands ScaleIn every
// interval, floor or no floor.
type scaleInAlways struct{}

func (scaleInAlways) Decide(control.Env, *stats.Snapshot) []control.Command {
	return []control.Command{control.ScaleIn{}}
}

// rebalanceAlways demands a rebalance regardless of the stage's
// routing scheme.
type rebalanceAlways struct{}

func (rebalanceAlways) Decide(env control.Env, _ *stats.Snapshot) []control.Command {
	plan := &balance.Plan{Table: route.NewTable(), MoveDest: map[tuple.Key]int{}}
	return []control.Command{control.Rebalance{Plan: plan}}
}

// scriptedConn is a remote controller reduced to its reply: every round
// is answered with the same Commands.
type scriptedConn struct{ reply *protocol.Commands }

func (scriptedConn) Send(*protocol.Message) error { return nil }

func (c scriptedConn) Recv() (*protocol.Message, error) {
	return &protocol.Message{Commands: c.reply}, nil
}

func (scriptedConn) Close() error { return nil }

// TestExecutorRejectsInapplicableCommands pins the reject-as-hold
// contract: commands a stage cannot apply — scale-in at one instance,
// a rebalance on a router-less stage, a Resize with a bad delta — are
// ignored, never panics on the driver goroutine.
func TestExecutorRejectsInapplicableCommands(t *testing.T) {
	// ScaleIn against a single-instance stage: held, engine keeps running.
	one := engine.NewStage("one", 1, func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(1)))
	e1 := engine.NewBatch(engine.BatchSpout(func() tuple.Tuple { return tuple.New(1, nil) }), engine.Config{Budget: 50}, one)
	defer e1.Stop()
	e1.AddSnapshotHook(0, control.NewLoop(e1, 0, []control.Policy{scaleInAlways{}}).Hook())
	e1.Run(3)
	if one.Instances() != 1 {
		t.Fatalf("single-instance stage resized to %d", one.Instances())
	}

	// Rebalance against a shuffle stage: held.
	sh := engine.NewStage("sh", 2, func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }, 1,
		engine.NewShuffleRouter(2))
	e2 := engine.NewBatch(engine.BatchSpout(func() tuple.Tuple { return tuple.New(1, nil) }), engine.Config{Budget: 50}, sh)
	defer e2.Stop()
	e2.AddSnapshotHook(0, control.NewLoop(e2, 0, []control.Policy{rebalanceAlways{}, scaleInAlways{}}).Hook())
	e2.Run(3)
	if sh.Instances() != 2 {
		t.Fatalf("shuffle stage resized to %d", sh.Instances())
	}

	// A raw remote controller sending a garbage Resize delta and a
	// plan targeting a nonexistent instance: both held.
	st3 := engine.NewStage("op", 2, func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(2)))
	e3 := engine.NewBatch(engine.BatchSpout(func() tuple.Tuple { return tuple.New(1, nil) }), engine.Config{Budget: 50}, st3)
	defer e3.Stop()
	x := control.NewExecutor(e3, 0, scriptedConn{&protocol.Commands{List: []protocol.Command{
		{Resize: &protocol.Resize{Delta: 5}},
		{Plan: &protocol.PlanAnnounce{
			Table: []protocol.RouteEntry{{Key: 1, Dest: 7}},
			Moved: []protocol.RouteEntry{{Key: 1, Dest: 7}},
		}},
	}}})
	snaps3 := lastSnapshots(e3)
	e3.Run(1)
	if reb := x.RunRound(snaps3[0]); reb != nil {
		t.Fatalf("garbage commands applied: %+v", reb)
	}
	if st3.Instances() != 2 {
		t.Fatalf("garbage delta resized the stage to %d", st3.Instances())
	}
	if d := st3.AssignmentRouter().Assignment().Dest(1); d >= 2 {
		t.Fatalf("out-of-range plan installed: key 1 -> %d", d)
	}
}
