package topology

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/ops"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The tentpole equivalence pin of hot-key splitting: with the detector
// armed, a run under extreme skew must reproduce the unsplit run's
// observables bit for bit — interval series, final harvest snapshots,
// routing tables, per-instance state volumes and final operator
// aggregates. Swept across Zipf skews from cold (θ=0.8, the detector
// never fires) to viral (θ=1.5, multiple keys split), on both the
// word-count topology and the PartialCount→MergeCount pipeline.

// observe registers a no-op snapshot hook on every stage of sys: a
// stage observes per-key statistics only while it has a hook, and the
// split-off run has none to compare against the splitter's.
func observe(sys *System) {
	for si := range sys.Engine.Stages {
		sys.Engine.AddSnapshotHook(si, func(*engine.Engine, int, *stats.Snapshot) *engine.Rebalance { return nil })
	}
}

func sameRuns(t *testing.T, label string, off, on *System, nd int) {
	t.Helper()
	so, sn := off.Recorder().Series, on.Recorder().Series
	if len(so) != len(sn) {
		t.Fatalf("%s: series lengths %d ≠ %d", label, len(sn), len(so))
	}
	for i := range so {
		a, b := so[i], sn[i]
		a.PlanMs, b.PlanMs = 0, 0
		if a != b {
			t.Fatalf("%s: interval %d diverges:\nsplit-off %+v\nsplit-on  %+v", label, i, a, b)
		}
	}
	os, ls := off.Engine.LastSnapshots()[0], on.Engine.LastSnapshots()[0]
	if len(os.Keys) != len(ls.Keys) {
		t.Fatalf("%s: snapshot sizes %d ≠ %d", label, len(ls.Keys), len(os.Keys))
	}
	for i := range os.Keys {
		if os.Keys[i] != ls.Keys[i] {
			t.Fatalf("%s: snapshot entry %d: split-off %+v, split-on %+v", label, i, os.Keys[i], ls.Keys[i])
		}
	}
	otab := map[tuple.Key]int{}
	off.Stage(0).AssignmentRouter().Assignment().Table().Each(func(k tuple.Key, d int) { otab[k] = d })
	ltab := map[tuple.Key]int{}
	on.Stage(0).AssignmentRouter().Assignment().Table().Each(func(k tuple.Key, d int) { ltab[k] = d })
	if len(otab) != len(ltab) {
		t.Fatalf("%s: table sizes %d ≠ %d", label, len(ltab), len(otab))
	}
	for k, d := range otab {
		if ltab[k] != d {
			t.Fatalf("%s: table entry %d: split-off %d, split-on %d", label, k, d, ltab[k])
		}
	}
	for d := 0; d < nd; d++ {
		if a, b := off.Stage(0).StoreOf(d).TotalSize(), on.Stage(0).StoreOf(d).TotalSize(); a != b {
			t.Fatalf("%s: instance %d state: split-off %d, split-on %d", label, d, a, b)
		}
	}
}

func TestHotKeySplitEquivalenceWordCount(t *testing.T) {
	const (
		nd        = 6
		keyDomain = 2000
		budget    = 8000
		intervals = 6
	)
	for _, theta := range []float64{0.8, 1.2, 1.5} {
		t.Run(fmt.Sprintf("theta=%.1f", theta), func(t *testing.T) {
			run := func(split bool) (*System, *ops.WordCountFleet) {
				gen := workload.NewZipfStream(keyDomain, theta, 0, budget, 23)
				fleet := ops.NewWordCountFleet()
				sOpts := []StageOption{Instances(nd), Window(2)}
				if split {
					sOpts = append(sOpts, HotKeySplit(4, 1.0))
				}
				sys := New(SpoutBatch(gen.NextBatch), Budget(budget)).
					Stage("wc", fleet.Factory, sOpts...).Build()
				observe(sys)
				sys.Run(intervals)
				sys.Stop()
				return sys, fleet
			}
			off, offFleet := run(false)
			on, onFleet := run(true)
			if theta >= 1.2 {
				sp := on.Splitter(0)
				if sp == nil || sp.Announced == 0 || sp.MaxActive == 0 {
					t.Fatalf("θ=%.1f: detector never split (announced=%v) — equivalence vacuous", theta, sp)
				}
			}
			sameRuns(t, "wordcount", off, on, nd)
			for k := tuple.Key(0); k < keyDomain; k++ {
				if a, b := offFleet.TotalCount(k), onFleet.TotalCount(k); a != b {
					t.Fatalf("key %d: split-off count %d, split-on %d", k, a, b)
				}
			}
		})
	}
}

func TestHotKeySplitEquivalencePKGPair(t *testing.T) {
	const (
		nd        = 6
		keyDomain = 1500
		budget    = 8000
		intervals = 6
	)
	for _, theta := range []float64{0.8, 1.2, 1.5} {
		t.Run(fmt.Sprintf("theta=%.1f", theta), func(t *testing.T) {
			run := func(split bool) (*System, *ops.PartialCountFleet, *ops.MergeCountFleet) {
				gen := workload.NewZipfStream(keyDomain, theta, 0, budget, 31)
				pf := ops.NewPartialCountFleet()
				mf := ops.NewMergeCountFleet()
				sOpts := []StageOption{Instances(nd)}
				if split {
					sOpts = append(sOpts, HotKeySplit(3, 1.0))
				}
				sys := New(SpoutBatch(gen.NextBatch), Budget(budget)).
					Stage("partial", pf.Factory, sOpts...).
					Stage("merge", mf.Factory, Instances(3)).
					Build()
				observe(sys)
				sys.Run(intervals)
				sys.Stop()
				return sys, pf, mf
			}
			off, offP, offM := run(false)
			on, onP, onM := run(true)
			if theta >= 1.2 {
				sp := on.Splitter(0)
				if sp == nil || sp.Announced == 0 {
					t.Fatalf("θ=%.1f: detector never split — equivalence vacuous", theta)
				}
			}
			sameRuns(t, "pkgpair", off, on, nd)
			var offPub, onPub int64
			for _, op := range offP.Instances {
				offPub += op.Published
			}
			for _, op := range onP.Instances {
				onPub += op.Published
			}
			if offPub != onPub {
				t.Fatalf("partials published: split-off %d, split-on %d", offPub, onPub)
			}
			for k := tuple.Key(0); k < keyDomain; k++ {
				if a, b := offM.TotalCount(k), onM.TotalCount(k); a != b {
					t.Fatalf("key %d: merged total split-off %d, split-on %d", k, a, b)
				}
			}
		})
	}
}

// TestHotKeySplitComposesWithRebalance runs the detector alongside a
// rebalancing controller under viral skew: plans and split churn share
// the control loop, split keys are pinned, and the run must neither lose
// nor double-count a single tuple.
func TestHotKeySplitComposesWithRebalance(t *testing.T) {
	const (
		nd        = 6
		keyDomain = 1200
		budget    = 8000
		intervals = 8
	)
	gen := workload.NewZipfStream(keyDomain, 1.4, 0.3, budget, 47)
	fleet := ops.NewWordCountFleet()
	sys := New(SpoutBatch(gen.NextBatch), Budget(budget)).
		Stage("wc", fleet.Factory,
			Instances(nd), Window(2),
			WithAlgorithm(AlgMixed), MinKeys(64), Theta(0.05),
			HotKeySplit(4, 0.8)).
		Build()
	sys.Run(intervals)
	sys.Stop()

	sp := sys.Splitter(0)
	if sp.Announced == 0 {
		t.Fatal("detector never engaged under θ=1.4")
	}
	var emitted int64
	for _, m := range sys.Recorder().Series {
		emitted += m.Emitted
	}
	var counted int64
	for _, op := range fleet.Instances {
		for k := tuple.Key(0); k < keyDomain; k++ {
			counted += op.Count(k)
		}
	}
	if counted != emitted {
		t.Fatalf("counted %d tuples, emitted %d (loss or double-count across split×rebalance)", counted, emitted)
	}
	// The guard bookkeeping of the same run — the stage-level backstop
	// never firing behind the controller's guard — is pinned where the
	// stage's counter is visible: engine's
	// TestControllerGuardLeavesStagePinsIdle.
}
