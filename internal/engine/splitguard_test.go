package engine_test

import (
	"testing"

	"repro/internal/ops"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestControllerGuardLeavesStagePinsIdle runs the hot-key detector
// beside a rebalancing controller under viral skew — topology's
// TestHotKeySplitComposesWithRebalance — and pins the guard
// bookkeeping: the controller plans without the split keys and keeps
// their routing entries, so neither its own check (SplitPinned) nor the
// stage-level backstop (Stage.ApplyPlan's pin) ever fires.
func TestControllerGuardLeavesStagePinsIdle(t *testing.T) {
	const budget = 8000
	gen := workload.NewZipfStream(1200, 1.4, 0.3, budget, 47)
	sys := topology.New(topology.SpoutBatch(gen.NextBatch), topology.Budget(budget)).
		Stage("wc", ops.NewWordCountFleet().Factory,
			topology.Instances(6), topology.Window(2),
			topology.WithAlgorithm(topology.AlgMixed), topology.MinKeys(64), topology.Theta(0.05),
			topology.HotKeySplit(4, 0.8)).
		Build()
	defer sys.Stop()
	sys.Run(8)
	if sys.Splitter(0).Announced == 0 {
		t.Fatal("detector never engaged under θ=1.4")
	}
	if got := sys.Stage(0).SplitPinned(); got != 0 {
		t.Fatalf("stage pinned %d moves of split keys", got)
	}
	if got := sys.Controller(0).SplitPinned; got != 0 {
		t.Fatalf("the controller stripped %d planned moves of split keys", got)
	}
}
