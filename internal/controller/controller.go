// Package controller implements the rebalance policy of Fig. 5: at
// every interval boundary it receives the operator's merged statistics
// (step 1), judges whether the imbalance warrants a new assignment
// function (step 2), and runs the configured planner. As a
// control.Policy it emits the resulting plan as a Rebalance command:
// the stage's control.Executor sends one LoadReport per round, the
// server answers with one Commands message, and the executor applies
// the plan at the sealed interval barrier (steps 3–7). Maybe applies
// the same decision directly against the stage, the reference the
// tests pin the control loop against.
package controller

import (
	"cmp"
	"slices"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Controller owns the rebalance policy for one operator.
type Controller struct {
	// Planner constructs F′ (Mixed, MinTable, Readj, …).
	Planner balance.Planner
	// Cfg carries θmax, Amax, β.
	Cfg balance.Config
	// MinKeys suppresses planning until the snapshot has at least this
	// many keys (warm-up guard); 0 means no guard.
	MinKeys int

	// SplitPinned counts plan moves stripped because their key was
	// split at decision time. The planner plans without the split keys,
	// so it stays 0; it counts a planner that broke that contract.
	SplitPinned int
	// HeldSplit counts intervals held because one instance's share of
	// the split keys alone exceeds Lmax: no key-granular plan can meet
	// θmax there, so planning would only churn keys. The splitter is
	// the policy that can act on it.
	HeldSplit int

	// applied counts the plans handed on for application. The plans
	// themselves are not kept: a controller that plans every interval
	// would pin every table and migration set for the life of the
	// process.
	applied int
	// view is the recycled key buffer of the split-aware planning view
	// (splitView): a planner's Plan never aliases its snapshot.
	view []stats.KeyStat
}

// New builds a controller with the given planner and config.
func New(p balance.Planner, cfg balance.Config) *Controller {
	return &Controller{Planner: p, Cfg: cfg}
}

// decide is the policy core shared by Decide and Maybe: judge the
// snapshot (step 2) and return the plan to apply this interval, or nil
// to hold. split is the stage's split set.
func (c *Controller) decide(routable bool, snap *stats.Snapshot, split []control.SplitSpec) *balance.Plan {
	if !routable || len(snap.Keys) == 0 {
		return nil
	}
	if c.MinKeys > 0 && len(snap.Keys) < c.MinKeys {
		return nil
	}
	view := snap
	if len(split) > 0 {
		view = c.splitView(snap, split)
	}
	pr := balance.NewProblem(view, c.Cfg)
	for _, p := range view.Pinned {
		if float64(p) > pr.Lmax {
			c.HeldSplit++
			return nil
		}
	}
	if stats.MaxTheta(pr.Loads) <= c.Cfg.ThetaMax {
		return nil
	}
	plan := c.Planner.Plan(view, c.Cfg)
	c.guardSplit(plan, split, snap)
	return plan
}

// splitView is the snapshot a planner sees while keys are split: every
// key but the split ones, over per-instance pinned loads that spread
// each split key's cost evenly over the replicas it runs on — the ring
// route.Replicas gives from its home, the split key's snapshot
// destination. The keys live in a buffer the controller recycles.
func (c *Controller) splitView(snap *stats.Snapshot, split []control.SplitSpec) *stats.Snapshot {
	view := &stats.Snapshot{Interval: snap.Interval, ND: snap.ND, Pinned: make([]int64, snap.ND)}
	keys := c.view[:0]
	for i := range snap.Keys {
		ks := &snap.Keys[i]
		j, ok := findSplit(split, ks.Key)
		if !ok {
			keys = append(keys, *ks)
			continue
		}
		reps := route.Replicas(ks.Dest, split[j].Fan, snap.ND)
		share, rest := ks.Cost/int64(len(reps)), ks.Cost%int64(len(reps))
		for r, d := range reps {
			view.Pinned[d] += share
			if int64(r) < rest {
				view.Pinned[d]++
			}
		}
	}
	c.view = keys
	view.Keys = keys
	return view
}

// findSplit returns k's position in a split set in ascending key order.
func findSplit(split []control.SplitSpec, k tuple.Key) (int, bool) {
	return slices.BinarySearchFunc(split, k, func(sp control.SplitSpec, k tuple.Key) int { return cmp.Compare(sp.Key, k) })
}

// Decide implements control.Policy: judge one snapshot and emit the
// rebalance command the stage's executor should apply. The plan is
// counted as applied at decision time — the executor's application is
// unconditional, so decision and application histories coincide.
func (c *Controller) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	plan := c.decide(env.Routable, snap, env.Split)
	if plan == nil {
		return nil
	}
	c.applied++
	return []control.Command{control.Rebalance{Plan: plan}}
}

// guardSplit keeps every split key where it is: a move of one is
// stripped and counted in SplitPinned — the planner plans without the
// split keys, so this is a check that stays 0 — and the key's
// routing-table entry is restored, since a planner builds A′ from the
// keys it saw. F(k) still lands on the home, as a hash fallback where
// possible and as an explicit entry otherwise, so the stage's own guard
// (Stage.ApplyPlan) finds nothing to pin.
func (c *Controller) guardSplit(plan *balance.Plan, split []control.SplitSpec, snap *stats.Snapshot) {
	if len(split) == 0 {
		return
	}
	if len(plan.Moved) > 0 {
		kept := plan.Moved[:0]
		for _, k := range plan.Moved {
			if _, ok := findSplit(split, k); ok {
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
		if _, ok := findSplit(split, ks.Key); !ok {
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
	var split []control.SplitSpec
	for _, hk := range stage.Splits() {
		split = append(split, control.SplitSpec{Key: hk.Key, Fan: hk.Fan})
	}
	plan := c.decide(stage.AssignmentRouter() != nil, snap, split)
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
	moved, err := stage.ApplyPlan(plan)
	if err != nil {
		return nil
	}
	c.applied++
	return &engine.Rebalance{Plan: plan, Moved: moved}
}

// Rebalances returns how many plans were applied.
func (c *Controller) Rebalances() int { return c.applied }
