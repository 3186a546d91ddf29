package control

import (
	"cmp"
	"fmt"

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
	err  error // the round's first error (Err)
}

// NewExecutor binds an executor to stage si of e, speaking over conn.
// In one process NewLoop wires it to the policies directly; a cluster
// worker runs it over its session, which the coordinator answers.
func NewExecutor(e *engine.Engine, si int, conn Conn) *Executor {
	return &Executor{e: e, si: si, conn: conn}
}

// RunRound drives one interval's control round: report the interval's
// statistics (step 1), receive the controller's one Commands reply and
// apply its list in order — PlanAnnounce through the stage's key
// migration, Resize through the engine's elastic actuator, SplitAnnounce
// through the stage's split set. The return value summarizes what was
// applied, in the shape the engine records (nil when the round held).
// A round that loses step — the transport fails, or the reply is not a
// Commands for the reported interval — holds and latches its error
// (Err), so the driver is never wedged and the break is not silent.
//
// The round's report is the snapshot itself: one LoadReport whose Keys
// are snap.Keys, which must therefore stay untouched until the round
// returns (the stage's snapshot does, by its lifetime rule).
func (x *Executor) RunRound(snap *stats.Snapshot) *engine.Rebalance {
	st := x.e.Stages[x.si]
	// The merged run goes out as it is, by reference in process.
	err := x.conn.Send(&protocol.Message{Report: &protocol.LoadReport{
		Interval: snap.Interval, Keys: snap.Keys,
		Tasks: st.Instances(), Capacity: x.e.CapacityOf(x.si),
		Emitted: x.e.LastEmitted(), Budget: x.e.Cfg.Budget,
		Routable: st.AssignmentRouter() != nil, Resizable: x.resizable(),
		Split: splitEntries(st.Splits()),
	}})
	var m *protocol.Message
	if err == nil {
		m, err = x.conn.Recv()
	}
	if err == nil && (m.Commands == nil || m.Commands.Interval != snap.Interval) {
		err = fmt.Errorf("a %s answered the report", m.Kind())
	}
	if err != nil {
		x.err = cmp.Or(x.err, fmt.Errorf("control: round of interval %d: %w", snap.Interval, err))
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

// Err returns the round's first error: a round that lost step, or an
// actuation that failed past the guards — a key whose state failed to
// encode (engine.Stage.ApplyPlan), though the command applied and the
// round stayed in step. A worker ends on it.
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

// NewLoop builds the control loop for stage si of e in one process:
// an Executor whose Conn answers each report with Answer, running the
// given policies in order on the driver's goroutine. Register its Hook
// with engine.AddSnapshotHook(si, ...). There is nothing to close, and
// policy state may be read between rounds.
func NewLoop(e *engine.Engine, si int, policies []Policy) *Executor {
	return NewExecutor(e, si, &localConn{policies: policies})
}
