// Package controller implements the rebalance policy of Fig. 5: at
// every interval boundary it receives the operator's merged statistics
// (step 1), judges whether the imbalance warrants a new assignment
// function (step 2), and runs the configured planner. As a
// control.Policy it emits the resulting plan as a Rebalance command,
// which the stage's control.Executor drives through the pause →
// migrate → ack → resume sequence (steps 3–7) over protocol messages;
// Maybe applies the same decision directly against the stage, the
// reference the tests pin the control loop against.
package controller

import (
	"time"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Controller owns the rebalance policy for one operator.
type Controller struct {
	// Planner constructs F′ (Mixed, MinTable, Readj, …).
	Planner balance.Planner
	// Cfg carries θmax, Amax, β.
	Cfg balance.Config
	// Trigger is the imbalance level that provokes planning; 0 uses
	// Cfg.ThetaMax (plan whenever the constraint is violated).
	Trigger float64
	// MinKeys suppresses planning until the snapshot has at least this
	// many keys (warm-up guard); 0 means no guard.
	MinKeys int
	// IntervalDuration, when positive, models plan-generation latency:
	// a plan whose GenTime exceeds it is applied ⌈GenTime/Interval⌉
	// intervals late, against live state that has meanwhile drifted —
	// the mechanism behind the paper's Fig. 15 observation that Readj's
	// multi-minute planning delays recovery. Zero applies plans
	// immediately (generation is instantaneous relative to the paper's
	// 10 s intervals for the fast planners).
	IntervalDuration time.Duration

	// SkippedBalanced counts intervals where no plan was needed.
	SkippedBalanced int
	// DeferredApplies counts plans that arrived late.
	DeferredApplies int
	// DroppedStale counts late plans discarded because the instance
	// set shrank while they were in generation (their destinations no
	// longer all exist).
	DroppedStale int
	// SplitPinned counts plan moves stripped because their key was
	// split at decision time: a split key's state is spread across its
	// replica set mid-interval, so the plan must leave it pinned to its
	// home until the detector folds it back.
	SplitPinned int

	// applied counts the plans handed on for application. The plans
	// themselves are not kept: a controller that plans every interval
	// would pin every table and migration set for the life of the
	// process.
	applied      int
	pending      *balance.Plan
	pendingDelay int
}

// New builds a controller with the given planner and config.
func New(p balance.Planner, cfg balance.Config) *Controller {
	return &Controller{Planner: p, Cfg: cfg}
}

// trigger returns the effective imbalance trigger.
func (c *Controller) trigger() float64 {
	if c.Trigger > 0 {
		return c.Trigger
	}
	return c.Cfg.ThetaMax
}

// decide is the policy core shared by Decide and Maybe: judge the
// snapshot (step 2) and return the plan to apply this interval, or nil
// to hold. It advances the pending-plan staleness state, so it must be
// called exactly once per interval.
func (c *Controller) decide(routable bool, snap *stats.Snapshot) *balance.Plan {
	if !routable || len(snap.Keys) == 0 {
		return nil
	}
	// A plan still "in generation" from a previous interval lands now
	// (possibly stale); no new planning happens while one is pending.
	if c.pending != nil {
		if c.pendingDelay > 0 {
			c.pendingDelay--
			return nil
		}
		plan := c.pending
		c.pending = nil
		// A plan generated before a scale-in may target instances that
		// no longer exist; applying it would route keys (and migrate
		// state) to retired tasks. Drop it — the next interval's
		// snapshot replans against the current instance set. (Scale-out
		// is harmless here: destinations only ever grow valid.)
		if maxPlanDest(plan) >= snap.ND {
			c.DroppedStale++
			return nil
		}
		c.DeferredApplies++
		return plan
	}
	if c.MinKeys > 0 && len(snap.Keys) < c.MinKeys {
		return nil
	}
	if stats.MaxTheta(snap.Loads()) <= c.trigger() {
		c.SkippedBalanced++
		return nil
	}
	plan := c.Planner.Plan(snap, c.Cfg)
	if c.IntervalDuration > 0 && plan.GenTime > c.IntervalDuration {
		delay := int(plan.GenTime / c.IntervalDuration)
		c.pending = plan
		c.pendingDelay = delay - 1
		if c.pendingDelay < 0 {
			c.pendingDelay = 0
		}
		return nil
	}
	return plan
}

// maxPlanDest returns the largest destination index a plan references
// (routing-table entries and migration targets), or -1 for an empty
// plan.
func maxPlanDest(plan *balance.Plan) int {
	max := -1
	if plan.Table != nil {
		plan.Table.Each(func(_ tuple.Key, d int) {
			if d > max {
				max = d
			}
		})
	}
	for _, d := range plan.MoveDest {
		if d > max {
			max = d
		}
	}
	return max
}

// Decide implements control.Policy: judge one snapshot and emit the
// rebalance command the stage's executor should apply. The plan is
// counted as applied at decision time — the executor's application is
// unconditional, so decision and application histories coincide.
func (c *Controller) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	plan := c.decide(env.Routable, snap)
	if plan == nil {
		return nil
	}
	c.guardSplit(plan, env.SplitKeys, snap)
	c.applied++
	return []control.Command{control.Rebalance{Plan: plan}}
}

// guardSplit pins every currently split key to its home destination:
// its migration entry is stripped (counted in SplitPinned) and its
// routing-table entry rewritten so F(k) still lands on the home — as a
// hash fallback where possible, as an explicit entry otherwise. The
// stage applies the same guard at plan time (Stage.SplitPinned); this
// controller-side pass keeps the announced plan honest, so wire
// observers never see a migration that will be refused.
func (c *Controller) guardSplit(plan *balance.Plan, split []tuple.Key, snap *stats.Snapshot) {
	if len(split) == 0 {
		return
	}
	splitSet := make(map[tuple.Key]bool, len(split))
	for _, k := range split {
		splitSet[k] = true
	}
	if len(plan.Moved) > 0 {
		kept := plan.Moved[:0]
		for _, k := range plan.Moved {
			if splitSet[k] {
				delete(plan.MoveDest, k)
				c.SplitPinned++
				continue
			}
			kept = append(kept, k)
		}
		plan.Moved = kept
	}
	if plan.Table == nil {
		return
	}
	// The snapshot carries each split key's current destination (its
	// home — the plan guard keeps that invariant) and hash h(k).
	for i := range snap.Keys {
		ks := &snap.Keys[i]
		if !splitSet[ks.Key] {
			continue
		}
		if ks.Hash == ks.Dest {
			plan.Table.Delete(ks.Key)
		} else {
			plan.Table.Put(ks.Key, ks.Dest)
		}
	}
}

// Maybe evaluates one snapshot and rebalances the stage directly if
// needed, returning what it did (nil when balanced or not applicable).
// It is the in-process shortcut around the protocol path — same
// decision core, same application primitive — and the reference the
// control loop is pinned against: a test that wants it registers a
// closure over Maybe with engine.AddSnapshotHook.
func (c *Controller) Maybe(stage *engine.Stage, snap *stats.Snapshot) *engine.Rebalance {
	plan := c.decide(stage.AssignmentRouter() != nil, snap)
	if plan == nil {
		return nil
	}
	return c.apply(stage, plan)
}

// apply installs a plan against the live stage. Keys that disappeared
// since planning simply migrate zero state; the routing table installs
// as computed. A stage that cannot apply plans (no assignment router)
// yields a hold — c.decide already gates on routability, so the error
// leg is unreachable in practice.
func (c *Controller) apply(stage *engine.Stage, plan *balance.Plan) *engine.Rebalance {
	moved, err := stage.ApplyPlan(plan, nil)
	if err != nil {
		return nil
	}
	c.applied++
	return &engine.Rebalance{Plan: plan, Moved: moved}
}

// Rebalances returns how many plans were applied.
func (c *Controller) Rebalances() int { return c.applied }
