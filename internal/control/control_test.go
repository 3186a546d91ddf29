package control_test

import (
	"sync"
	"testing"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// mkEngine hand-wires a single Mixed-rebalanced stage over a seeded
// Zipf stream, the oracle configuration every equivalence test reuses.
func mkEngine(seed int64) (*engine.Engine, *engine.Stage) {
	gen := workload.NewZipfStream(4000, 1.0, 1.0, 8000, seed)
	st := engine.NewStage("op", 8, func(int) engine.Operator { return engine.StatefulCount }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(8)))
	cfg := engine.DefaultConfig()
	cfg.Budget = 8000
	e := engine.NewBatch(engine.BatchSpout(gen.Next), cfg, st)
	ar := st.AssignmentRouter()
	e.AdvanceWorkload = func(int64) { gen.Advance(ar.Assignment()) }
	return e, st
}

// lastSnapshots registers a hook on every stage of e that keeps the
// stage's latest snapshot in the returned slice: a stage observes
// per-key statistics only while it has a hook, so this is also how a
// test reads a controller-less stage's snapshots.
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

func mkController() *controller.Controller {
	ctl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	ctl.MinKeys = 32
	return ctl
}

// directHook is the direct path the control loop is pinned against: the
// controller decides and applies on the stage itself, no protocol.
func directHook(ctl *controller.Controller) engine.SnapshotHook {
	return func(e *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
		return ctl.Maybe(e.Stages[si], snap)
	}
}

// stripWallClock zeroes the only nondeterministic series field
// (plan-generation wall time) so two independent runs compare exactly.
func stripWallClock(series []metrics.Interval) []metrics.Interval {
	out := append([]metrics.Interval(nil), series...)
	for i := range out {
		out[i].PlanMs = 0
	}
	return out
}

func sameSeries(t *testing.T, label string, a, b []metrics.Interval) {
	t.Helper()
	a, b = stripWallClock(a), stripWallClock(b)
	if len(a) != len(b) {
		t.Fatalf("%s: series lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: interval %d differs:\n  %+v\n  %+v", label, i, a[i], b[i])
		}
	}
}

func sameTables(t *testing.T, label string, a, b *engine.Stage) {
	t.Helper()
	ta := a.AssignmentRouter().Assignment().Table()
	tb := b.AssignmentRouter().Assignment().Table()
	if ta.Len() != tb.Len() {
		t.Fatalf("%s: table sizes %d vs %d", label, ta.Len(), tb.Len())
	}
	for _, k := range ta.Keys() {
		da, _ := ta.Lookup(k)
		db, ok := tb.Lookup(k)
		if !ok || da != db {
			t.Fatalf("%s: key %d routed %d vs %d (present %v)", label, k, da, db, ok)
		}
	}
}

func sameSnapshots(t *testing.T, label string, a, b []*stats.Snapshot) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: snapshot counts %d vs %d", label, len(a), len(b))
	}
	for si := range a {
		if a[si].Interval != b[si].Interval || a[si].ND != b[si].ND || len(a[si].Keys) != len(b[si].Keys) {
			t.Fatalf("%s: snapshot %d headers differ: %+v vs %+v", label, si, a[si], b[si])
		}
		for i := range a[si].Keys {
			if a[si].Keys[i] != b[si].Keys[i] {
				t.Fatalf("%s: snapshot %d key %d: %+v vs %+v", label, si, i, a[si].Keys[i], b[si].Keys[i])
			}
		}
	}
}

// TestLoopMatchesDirectController pins the refactor's core equivalence:
// the protocol-marshaled control loop reproduces the direct
// Maybe-on-the-stage path bit-identically — interval series, final
// snapshots, routing tables and applied-plan history.
func TestLoopMatchesDirectController(t *testing.T) {
	for _, transport := range []string{"local", "wire"} {
		t.Run(transport, func(t *testing.T) {
			eDirect, stDirect := mkEngine(101)
			defer eDirect.Stop()
			ctlDirect := mkController()
			eDirect.AddSnapshotHook(0, directHook(ctlDirect))
			directSnaps := lastSnapshots(eDirect)

			eLoop, stLoop := mkEngine(101)
			defer eLoop.Stop()
			ctlLoop := mkController()
			if transport == "wire" {
				defer framedLoop(eLoop, 0, []control.Policy{ctlLoop})()
			} else {
				localLoop(eLoop, 0, []control.Policy{ctlLoop})
			}
			loopSnaps := lastSnapshots(eLoop)

			eDirect.Run(20)
			eLoop.Run(20)

			sameSeries(t, transport, eDirect.Recorder.Series, eLoop.Recorder.Series)
			sameSnapshots(t, transport, directSnaps, loopSnaps)
			sameTables(t, transport, stDirect, stLoop)
			if ctlDirect.Rebalances() != ctlLoop.Rebalances() {
				t.Fatalf("rebalances %d vs %d", ctlDirect.Rebalances(), ctlLoop.Rebalances())
			}
			if ctlDirect.Rebalances() == 0 {
				t.Fatal("oracle run never rebalanced; the pin is vacuous")
			}
		})
	}
}

// TestSnapshotWireRoundTrip pins the report marshaling itself: a
// harvested snapshot shipped as the round's report over the framed wire
// arrives byte-identical — every entry's statistics, Dest and Hash, in
// the same order — and passes the receiver's check.
func TestSnapshotWireRoundTrip(t *testing.T) {
	e, st := mkEngine(7)
	defer e.Stop()
	snaps := lastSnapshots(e)
	e.Run(3)
	snap := snaps[0]
	if len(snap.Keys) == 0 {
		t.Fatal("empty oracle snapshot")
	}
	a, b := newFramedPair()
	defer a.Close()
	defer b.Close()
	go a.Send(&protocol.Message{Report: &protocol.LoadReport{
		Interval: snap.Interval, Keys: snap.Keys, Tasks: st.Instances(),
	}})
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Report.CheckMerged(); err != nil {
		t.Fatal(err)
	}
	back := &stats.Snapshot{Interval: m.Report.Interval, ND: m.Report.Tasks, Keys: m.Report.Keys}
	sameSnapshots(t, "framed pipe", []*stats.Snapshot{snap}, []*stats.Snapshot{back})
}

// capturePolicy records every snapshot the controller side decides on
// (a copy: a snapshot's keys are recycled two rounds later), delegating
// the decision itself.
type capturePolicy struct {
	mu    sync.Mutex
	inner control.Policy
	snaps []*stats.Snapshot
}

func (c *capturePolicy) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	c.mu.Lock()
	c.snaps = append(c.snaps, snap.Clone())
	c.mu.Unlock()
	if c.inner != nil {
		return c.inner.Decide(env, snap)
	}
	return nil
}
