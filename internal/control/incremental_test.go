package control_test

import (
	"sync"
	"testing"

	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// mkEngineH is mkEngine with an interval-close mode.
func mkEngineH(seed int64, h engine.HarvestMode) (*engine.Engine, *engine.Stage) {
	gen := workload.NewZipfStream(4000, 1.0, 1.0, 8000, seed)
	st := engine.NewStage("op", 8, func(int) engine.Operator { return engine.StatefulCount }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(8)))
	cfg := engine.DefaultConfig()
	cfg.Budget = 8000
	cfg.Harvest = h
	e := engine.New(gen.Next, cfg, st)
	ar := st.AssignmentRouter()
	e.AdvanceWorkload = func(int64) { gen.Advance(ar.Assignment()) }
	return e, st
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

// TestIncrementalLoopMatchesFullLoop pins the control plane's half of
// the incremental equivalence: the same workload and the same planning
// controller, once over full-population reports (HarvestFull) and once
// over the delta stream (HarvestIncremental, mirror-reconstructed on
// the controller side, full rebases forced around every command),
// produce bit-identical series, snapshots and routing tables — over
// the real gob wire transport.
func TestIncrementalLoopMatchesFullLoop(t *testing.T) {
	run := func(h engine.HarvestMode) (*engine.Engine, *engine.Stage) {
		e, st := mkEngineH(101, h)
		loop := control.NewLoop(e, 0, []control.Policy{mkController()}, control.Wire())
		e.AddSnapshotHook(0, loop.Hook())
		e.Run(20)
		loop.Close()
		return e, st
	}
	eFull, stFull := run(engine.HarvestFull)
	defer eFull.Stop()
	eInc, stInc := run(engine.HarvestIncremental)
	defer eInc.Stop()

	sameSeries(t, "incremental-vs-full", eFull.Recorder.Series, eInc.Recorder.Series)
	sameSnapshots(t, "incremental-vs-full", eFull.LastSnapshots(), eInc.LastSnapshots())
	sameTables(t, "incremental-vs-full", stFull, stInc)
}

// TestMirrorReconstructsStageSnapshots pins, round by round, that the
// snapshot the policies decide on — reconstructed on the controller
// side from delta reports through the mirror — is bit-identical to the
// snapshot the stage harvested, across command rounds (which force
// full rebases) and held rounds (which ride deltas).
func TestMirrorReconstructsStageSnapshots(t *testing.T) {
	e, _ := mkEngineH(77, engine.HarvestIncremental)
	defer e.Stop()
	var stageSnaps []*stats.Snapshot
	e.AddSnapshotHook(0, func(_ *engine.Engine, _ int, snap *stats.Snapshot) *engine.Rebalance {
		stageSnaps = append(stageSnaps, snap.Clone())
		return nil
	})
	cap := &capturePolicy{inner: mkController()}
	loop := control.NewLoop(e, 0, []control.Policy{cap}, control.Wire())
	defer loop.Close()
	e.AddSnapshotHook(0, loop.Hook())
	e.Run(16)
	loop.Close()

	cap.mu.Lock()
	defer cap.mu.Unlock()
	if len(cap.snaps) != len(stageSnaps) {
		t.Fatalf("controller decided on %d rounds, stage harvested %d", len(cap.snaps), len(stageSnaps))
	}
	for i := range cap.snaps {
		got, want := cap.snaps[i], stageSnaps[i]
		if got.Interval != want.Interval || got.ND != want.ND || len(got.Keys) != len(want.Keys) {
			t.Fatalf("round %d headers: controller {%d %d %d keys}, stage {%d %d %d keys}",
				i, got.Interval, got.ND, len(got.Keys), want.Interval, want.ND, len(want.Keys))
		}
		for j := range got.Keys {
			if got.Keys[j] != want.Keys[j] {
				t.Fatalf("round %d entry %d: controller %+v, stage %+v", i, j, got.Keys[j], want.Keys[j])
			}
		}
	}
	sent, rcvd := loop.WireBytes()
	if sent == 0 || rcvd == 0 {
		t.Fatalf("wire transport counted no bytes (sent %d, rcvd %d)", sent, rcvd)
	}
}

// TestResyncAndForceFull drives a standalone Executor over the wire
// transport with a hand-written controller and pins the report-form
// state machine: full on the first round, deltas on held rounds, a
// mid-round Resync answered with full reports for the same interval,
// and a forced full rebase on the round after any command.
func TestResyncAndForceFull(t *testing.T) {
	e, st := mkEngineH(7, engine.HarvestIncremental)
	defer e.Stop()
	agent, ctrl := control.NewWirePair()
	defer agent.Close()
	x := control.NewExecutor(e, 0, agent)

	feed := func(keys ...tuple.Key) {
		ts := make([]tuple.Tuple, len(keys))
		for i, k := range keys {
			ts[i] = tuple.New(k, 1)
		}
		st.FeedBatch(ts)
		st.Barrier()
	}
	recvReports := func(interval int64, wantDelta bool) []*protocol.LoadReport {
		t.Helper()
		reports := make([]*protocol.LoadReport, 0, st.Instances())
		for len(reports) < st.Instances() {
			m, err := ctrl.Recv()
			if err != nil {
				t.Fatalf("interval %d: recv: %v", interval, err)
			}
			r := m.Report
			if r == nil {
				t.Fatalf("interval %d: expected report, got %s", interval, m.Kind())
			}
			if r.Interval != interval || r.Delta != wantDelta || r.Epoch == 0 {
				t.Fatalf("interval %d: report {interval %d, delta %v, epoch %d}, want delta %v",
					interval, r.Interval, r.Delta, r.Epoch, wantDelta)
			}
			reports = append(reports, r)
		}
		return reports
	}
	send := func(m *protocol.Message) {
		t.Helper()
		if err := ctrl.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	round := func(interval int64, drive func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); x.RunRound(st.EndInterval(interval)) }()
		drive()
		<-done
	}

	// Round 1: mirror empty, reports must be full.
	feed(1, 2, 3, 4, 5, 6, 7, 8)
	round(1, func() {
		recvReports(1, false)
		send(&protocol.Message{Resume: &protocol.Resume{Interval: 1}})
	})

	// Round 2: held round rides deltas; a Resync mid-round makes the
	// executor resend the same interval in full.
	feed(1, 2)
	round(2, func() {
		recvReports(2, true)
		send(&protocol.Message{ResyncReq: &protocol.Resync{Interval: 2}})
		full := recvReports(2, false)
		var total int
		for _, r := range full {
			total += len(r.Stats)
		}
		if total != 8 {
			t.Fatalf("resync full reports carry %d entries, want the 8-key population", total)
		}
		send(&protocol.Message{Resume: &protocol.Resume{Interval: 2}})
	})

	// Round 3: still delta (a resync is not a command).
	feed(3)
	round(3, func() {
		recvReports(3, true)
		// An applied command (here an empty split set) must force the
		// next round full.
		send(&protocol.Message{Split: &protocol.SplitAnnounce{Interval: 3}})
		m, err := ctrl.Recv()
		if err != nil || m.Ack == nil {
			t.Fatalf("expected ack, got %v (err %v)", m, err)
		}
		send(&protocol.Message{Resume: &protocol.Resume{Interval: 3}})
	})

	// Round 4: full rebase after the commanded round.
	feed(4)
	round(4, func() {
		recvReports(4, false)
		send(&protocol.Message{Resume: &protocol.Resume{Interval: 4}})
	})

	// Round 5: back to deltas.
	feed(5)
	round(5, func() {
		recvReports(5, true)
		send(&protocol.Message{Resume: &protocol.Resume{Interval: 5}})
	})
}
