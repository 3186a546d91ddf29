package engine

import (
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// gateRun is one run of the observation-gate test: a stateful stage
// under a Zipf stream, its per-interval snapshot sizes, and what a
// resize moved.
type gateRun struct {
	e     *Engine
	st    *Stage
	snaps []int
	moved int64
	// live keys just before and just after the resize
	before, after []tuple.Key
}

// runGate drives intervals intervals of a 4-task stateful stage. A hook
// counting the snapshot's keys is registered before interval hookAt
// (never when hookAt is negative); after interval 2 the stage is resized
// by resize (0: none).
func runGate(t *testing.T, hookAt, resize, intervals int) *gateRun {
	t.Helper()
	const nd, budget = 4, 4000
	gen := workload.NewZipfStream(600, 1.0, 0, budget, 17)
	st := statefulStage(nd, 2)
	cfg := DefaultConfig()
	cfg.Budget = budget
	r := &gateRun{e: NewBatch(gen.NextBatch, cfg, st), st: st}
	t.Cleanup(r.e.Stop)
	keys := 0
	for i := 0; i < intervals; i++ {
		if i == hookAt {
			r.e.AddSnapshotHook(0, func(_ *Engine, _ int, snap *stats.Snapshot) *Rebalance {
				keys = len(snap.Keys)
				return nil
			})
		}
		r.e.RunInterval()
		r.snaps = append(r.snaps, keys)
		if i == 2 && resize != 0 {
			r.before = st.LiveKeys()
			moved, err := r.e.ResizeStage(0, resize)
			if err != nil {
				t.Fatalf("ResizeStage(%+d): %v", resize, err)
			}
			r.moved, r.after = moved, st.LiveKeys()
		}
	}
	return r
}

// TestObservationGate pins the statistics gate: an engine stage
// observes per-key statistics only while a snapshot hook is registered
// for it — from the interval after the registration, on every task a
// resize leaves it — and observing or not changes no row, no stored
// key and no routing decision. Each case is compared with the same run
// observed from its first interval.
func TestObservationGate(t *testing.T) {
	const intervals = 6
	for _, tc := range []struct {
		name   string
		hookAt int // interval the no-op hook is registered before; -1: never
		resize int
	}{
		{"hook-less", -1, 0},
		{"hook registered between intervals", 3, 0},
		{"hook-less scale-out", -1, +1},
		{"observed scale-out", 0, +1},
		{"hook-less scale-in", -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runGate(t, tc.hookAt, tc.resize, intervals)
			ref := runGate(t, 0, tc.resize, intervals)

			for i, n := range got.snaps {
				observed := tc.hookAt >= 0 && i >= tc.hookAt
				if want := ref.snaps[i]; observed && n != want || !observed && n != 0 {
					t.Fatalf("interval %d: snapshot of %d keys (observed %v); the observed run's has %d", i, n, observed, want)
				}
			}
			observe := tc.hookAt >= 0
			if got.st.observe != observe {
				t.Fatalf("stage observe = %v, want %v", got.st.observe, observe)
			}
			for d := 0; d < got.st.Instances(); d++ {
				if o := got.st.CtxOf(d).observe; o != observe {
					t.Fatalf("task %d observe = %v, want the stage's %v", d, o, observe)
				}
				if keys := got.st.CtxOf(d).Tracker.Keys(); observe != (len(keys) > 0) {
					t.Fatalf("task %d tracker holds %d keys (observed %v)", d, len(keys), observe)
				}
			}

			if !slices.EqualFunc(got.e.Recorder.Series, ref.e.Recorder.Series, func(a, b metrics.Interval) bool { return a == b }) {
				t.Fatalf("rows diverge:\ngot %+v\nref %+v", got.e.Recorder.Series, ref.e.Recorder.Series)
			}
			if got.moved != ref.moved {
				t.Fatalf("resize moved %d, observed run %d", got.moved, ref.moved)
			}
			if got.st.Instances() != ref.st.Instances() {
				t.Fatalf("%d instances, observed run %d", got.st.Instances(), ref.st.Instances())
			}
			for d := 0; d < got.st.Instances(); d++ {
				a, b := got.st.StoreOf(d), ref.st.StoreOf(d)
				// Keys come in table order, which the statistics' records
				// shape; the set is what must match.
				ka, kb := a.Keys(), b.Keys()
				slices.Sort(ka)
				slices.Sort(kb)
				if !slices.Equal(ka, kb) {
					t.Fatalf("task %d stores keys %v, observed run %v", d, ka, kb)
				}
				for _, k := range ka {
					if sizeOf(a, k) != sizeOf(b, k) {
						t.Fatalf("task %d key %d: state %d, observed run %d", d, k, sizeOf(a, k), sizeOf(b, k))
					}
				}
			}
			ga, ra := got.st.AssignmentRouter().Assignment(), ref.st.AssignmentRouter().Assignment()
			for k := tuple.Key(0); k < 600; k++ {
				if ga.Dest(k) != ra.Dest(k) {
					t.Fatalf("key %d routes to %d, observed run %d", k, ga.Dest(k), ra.Dest(k))
				}
			}

			if tc.resize < 0 {
				// Every key stored before the scale-in is stored after it,
				// on a survivor: LiveKeys found the retiring task's keys
				// with no tracker to list them.
				if got.moved == 0 || !slices.Equal(got.before, got.after) {
					t.Fatalf("scale-in moved %d: %d keys stored before, %d after", got.moved, len(got.before), len(got.after))
				}
			}
		})
	}
}
