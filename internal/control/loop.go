package control

import (
	"cmp"
	"sync"

	"repro/internal/engine"
	"repro/internal/hashring"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Executor is the stage-side half of the control loop: the single
// per-stage actuator that reports the interval's statistics and
// applies whatever commands come back, marshaling every step through
// protocol messages. It is the only component that touches the engine;
// the policies on the other end of the Conn see wire data exclusively.
type Executor struct {
	e    *engine.Engine
	si   int
	conn Conn
	err  error // the first actuation error (Err)
}

// NewExecutor binds an executor to stage si of e, speaking over conn.
// Most callers want NewLoop, which wires both halves; a standalone
// executor serves a remote controller (anything answering on conn with
// the protocol's command messages).
func NewExecutor(e *engine.Engine, si int, conn Conn) *Executor {
	return &Executor{e: e, si: si, conn: conn}
}

// RunRound drives one interval's control round: report the interval's
// statistics (step 1), receive the controller's one Commands reply and
// apply its list in order — PlanAnnounce through the stage's key
// migration, Resize through the engine's elastic actuator, SplitAnnounce
// through the stage's split set. The return value summarizes what was
// applied, in the shape the engine records (nil when the round held,
// the transport is gone, or the reply was not a Commands for the
// reported interval).
//
// The round's report is the snapshot itself: one LoadReport whose Keys
// are snap.Keys, which must therefore stay untouched until the round
// returns (the stage's snapshot does, by its lifetime rule).
func (x *Executor) RunRound(snap *stats.Snapshot) *engine.Rebalance {
	st := x.e.Stages[x.si]
	// The merged run goes out as it is, by reference on the loopback.
	if x.conn.Send(&protocol.Message{Report: &protocol.LoadReport{
		Interval: snap.Interval, Keys: snap.Keys,
		Tasks: st.Instances(), Capacity: x.e.CapacityOf(x.si),
		Emitted: x.e.LastEmitted(), Budget: x.e.Cfg.Budget,
		Routable: st.AssignmentRouter() != nil, Resizable: x.resizable(),
		Split: splitEntries(st.Splits()),
	}}) != nil {
		return nil
	}
	m, err := x.conn.Recv()
	if err != nil || m.Commands == nil || m.Commands.Interval != snap.Interval {
		// Anything but the reply to this report where the reply belongs
		// breaks the protocol: the round holds rather than wedge the
		// driver.
		return nil
	}
	var reb *engine.Rebalance
	for _, c := range m.Commands.List {
		switch {
		case c.Plan != nil:
			// Inapplicable commands are rejected as holds, not
			// panics: the executor may serve a remote controller, and
			// a malformed command must not crash the driver.
			if st.AssignmentRouter() == nil || !planFits(c.Plan, st.Instances()) {
				break
			}
			plan := protocol.PlanFromAnnounce(c.Plan)
			moved, err := st.ApplyPlan(plan)
			x.err = cmp.Or(x.err, err)
			if reb == nil {
				reb = &engine.Rebalance{}
			}
			if reb.Plan == nil {
				reb.Plan, reb.Moved = plan, moved
			}
		case c.Resize != nil:
			delta := c.Resize.Delta
			if !x.canResize(delta) {
				break
			}
			_, err := x.e.ResizeStage(x.si, delta)
			x.err = cmp.Or(x.err, err)
			if reb == nil {
				reb = &engine.Rebalance{}
			}
			if delta > 0 {
				reb.ScaledOut++
			} else {
				reb.ScaledIn++
			}
		case c.Split != nil:
			// Reject-as-hold mirrors the plan path: ApplySplitSet refuses
			// a stage without an assignment router. Nothing is recorded
			// in reb — a split is a routing-layer change, not a
			// migration.
			set := make([]stats.HotKey, 0, len(c.Split.Set))
			for _, e := range c.Split.Set {
				set = append(set, stats.HotKey{Key: e.Key, Fan: e.Fan})
			}
			_ = st.ApplySplitSet(set)
		}
	}
	return reb
}

// Err returns the first error an actuation returned: past the guards, a
// key whose state failed to encode (engine.Stage.ApplyPlan), though the
// command applied and the round stayed in step. A worker ends on it.
func (x *Executor) Err() error { return x.err }

// Hook adapts the executor to the engine's snapshot fan-out: register
// it with engine.AddSnapshotHook(si, x.Hook()). It runs one control
// round per interval on the driver goroutine (tasks are idle
// post-harvest, so plan application and resize are barrier-safe).
func (x *Executor) Hook() engine.SnapshotHook {
	return func(e *engine.Engine, idx int, snap *stats.Snapshot) *engine.Rebalance {
		if idx != x.si {
			return nil
		}
		return x.RunRound(snap)
	}
}

// splitEntries is a stage's split set as a report carries it.
func splitEntries(set []stats.HotKey) []protocol.SplitEntry {
	if len(set) == 0 {
		return nil
	}
	es := make([]protocol.SplitEntry, len(set))
	for i, hk := range set {
		es[i] = protocol.SplitEntry{Key: hk.Key, Fan: hk.Fan}
	}
	return es
}

// planFits reports whether every destination a plan announce
// references exists on the stage right now. A plan computed before a
// same-round scale-in — or a malformed one from a remote controller —
// can target a retired instance; applying it would index past the
// task slice, so the executor refuses it.
func planFits(a *protocol.PlanAnnounce, instances int) bool {
	for _, e := range a.Table {
		if e.Dest < 0 || e.Dest >= instances {
			return false
		}
	}
	for _, mv := range a.Moved {
		if mv.Dest < 0 || mv.Dest >= instances {
			return false
		}
	}
	return true
}

// resizable reports whether the stage's instance set can change at
// all: assignment routing over a consistent-hash ring. Reported to
// policies in the round context, so they never emit resizes the
// executor would reject.
func (x *Executor) resizable() bool {
	ar := x.e.Stages[x.si].AssignmentRouter()
	if ar == nil {
		return false
	}
	_, ring := ar.Assignment().Hasher().(*hashring.Ring)
	return ring
}

// canResize reports whether a Resize command is applicable to the
// stage right now: delta must be ±1, the stage must be resizable, and
// a scale-in must leave at least one instance.
func (x *Executor) canResize(delta int) bool {
	if delta != 1 && delta != -1 {
		return false
	}
	if !x.resizable() {
		return false
	}
	return delta == 1 || x.e.Stages[x.si].Instances() > 1
}

// Loop wires a complete per-stage control loop in one process: the
// stage-side Executor, the controller-side policy Server on its own
// goroutine, and the loopback Conn pair between them. Register Hook
// with the engine's per-stage snapshot fan-out; Close tears the server
// down.
type Loop struct {
	x    *Executor
	srv  *Server
	once sync.Once
}

// NewLoop builds the control loop for stage si of e, running the given
// policies in order on the controller side, and starts the policy
// server. The caller owns the returned loop and must Close it.
func NewLoop(e *engine.Engine, si int, policies []Policy) *Loop {
	agent, ctrl := NewLoopbackPair()
	l := &Loop{x: NewExecutor(e, si, agent), srv: NewServer(ctrl, policies)}
	l.srv.Start()
	return l
}

// Hook is the loop's executor hook (Executor.Hook): register it with
// engine.AddSnapshotHook(si, loop.Hook()).
func (l *Loop) Hook() engine.SnapshotHook { return l.x.Hook() }

// Close shuts the transport down and waits for the policy server to
// exit, so policy state is safe to read afterwards. Safe to call more
// than once.
func (l *Loop) Close() {
	l.once.Do(func() {
		l.x.conn.Close()
		l.srv.Close()
	})
}
