package topology

import (
	"fmt"
	"testing"

	"repro/internal/ops"
	"repro/internal/workload"
)

// TestRebalancerDoesNotFlapAroundSplit is the split half of the flap
// test, in the repository benchmark's hotkey shape: 10⁴ keys, 10⁴
// tuples an interval on a stationary stream, 8 instances, a window of
// one interval, Mixed at the default θmax, HotKeySplit(4, 1.0), no
// throttle, 200 intervals. At z = 1.5 the hottest key carries about 40 %
// of the load against an Lmax of about 13.5 %, so no key-granular plan
// could ever meet θmax; planning against the split key as if it could
// move planned in every interval. Planning around it plans in at most
// 10 % of the intervals after warm-up and never moves a split key. At
// z = 1.2 the count is logged, not bounded.
func TestRebalancerDoesNotFlapAroundSplit(t *testing.T) {
	const (
		keys, budget, nd = 10000, 10000, 8
		intervals, warm  = 200, 10
	)
	for _, z := range []float64{1.2, 1.5} {
		t.Run(fmt.Sprintf("z=%.1f", z), func(t *testing.T) {
			gen := workload.NewZipfStream(keys, z, 0, budget, 1)
			sys := New(SpoutBatch(gen.NextBatch), Budget(budget), MaxPending(0)).
				Stage("wc", ops.NewWordCountFleet().Factory,
					Instances(nd), Window(1), WithAlgorithm(AlgMixed), MinKeys(64),
					HotKeySplit(4, 1.0)).
				Build()
			sys.Run(intervals)
			sys.Stop()
			if sys.Splitter(0).MaxActive == 0 {
				t.Fatal("no key was split: the pin is vacuous")
			}
			plans := 0
			for _, m := range sys.Recorder().Series[warm:] {
				if m.Rebalanced {
					plans++
				}
			}
			ctl := sys.Controller(0)
			t.Logf("planned in %d of %d intervals after warm-up; held %d, balanced %d, max split %d",
				plans, intervals-warm, ctl.HeldSplit, ctl.SkippedBalanced, sys.Splitter(0).MaxActive)
			if ctl.SplitPinned != 0 {
				t.Fatalf("the controller stripped %d planned moves of split keys", ctl.SplitPinned)
			}
			if z == 1.5 && plans > (intervals-warm)/10 {
				t.Fatalf("planned in %d of %d intervals after warm-up, want at most 10 %%", plans, intervals-warm)
			}
		})
	}
}
