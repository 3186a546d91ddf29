package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// TestIncrementalMatchesFullHarvest pins the tentpole equivalence
// claim of the incremental interval close: the same spout driven
// through the same randomized control schedule — rebalance plans,
// scale-out, live scale-in and hot-key split churn — once under
// HarvestFull (the full-rescan oracle) and once under
// HarvestIncremental (dirty-key merge into persistent aggregates)
// produces bit-identical interval series, harvest snapshots, per-task
// deltas, routing tables and state placement. Run under -race by the
// CI suite.
func TestIncrementalMatchesFullHarvest(t *testing.T) {
	run := func(mode HarvestMode) (*Engine, *Stage) {
		gen := workload.NewZipfStream(1500, 0.9, 0, 8000, 41)
		st := statefulStage(4, 2)
		cfg := DefaultConfig()
		cfg.Budget = 8000
		cfg.Harvest = mode
		e := NewBatch(gen.NextBatch, cfg, st)
		if st.Harvest() != mode {
			t.Fatalf("stage harvest = %v, want %v", st.Harvest(), mode)
		}
		// Seeded random control schedule. Both modes see identical
		// snapshots, so identical seeds yield identical schedules — the
		// inductive step of the equivalence pin.
		rng := rand.New(rand.NewSource(97))
		splitOn := false
		e.AddSnapshotHook(0, func(e *Engine, si int, snap *stats.Snapshot) *Rebalance {
			if len(snap.Keys) == 0 {
				return nil
			}
			stage := e.Stages[si]
			switch rng.Intn(8) {
			case 0: // hold
				return nil
			case 1: // scale out
				if stage.Instances() >= 6 {
					return nil
				}
				if _, err := e.ResizeStage(si, +1); err != nil {
					t.Fatalf("ResizeStage(+1, %v): %v", mode, err)
				}
				return &Rebalance{ScaledOut: 1}
			case 2: // live scale-in
				if stage.Instances() <= 2 {
					return nil
				}
				if _, err := e.ResizeStage(si, -1); err != nil {
					t.Fatalf("ResizeStage(-1, %v): %v", mode, err)
				}
				return &Rebalance{ScaledIn: 1}
			case 3: // split churn: toggle a 2-fan split on the hottest key
				splitOn = !splitOn
				var set []stats.HotKey
				if splitOn {
					set = []stats.HotKey{{Key: snap.Keys[0].Key, Fan: 2}}
				}
				if err := stage.ApplySplitSet(set); err != nil {
					t.Fatalf("ApplySplitSet(%v): %v", mode, err)
				}
				return nil
			default: // rebalance ~6% of harvested keys
				asg := stage.AssignmentRouter().Assignment()
				tab := asg.Table().Clone()
				plan := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
				nd := stage.Instances()
				for _, ks := range snap.Keys {
					if rng.Intn(16) != 0 {
						continue
					}
					dst := (asg.Dest(ks.Key) + 1 + rng.Intn(nd-1)) % nd
					tab.Put(ks.Key, dst)
					plan.Moved = append(plan.Moved, ks.Key)
					plan.MoveDest[ks.Key] = dst
				}
				if len(plan.Moved) == 0 {
					return nil
				}
				moved, err := stage.ApplyPlan(plan)
				if err != nil {
					t.Fatalf("ApplyPlan(%v): %v", mode, err)
				}
				return &Rebalance{Plan: plan, Moved: moved}
			}
		})
		e.Run(14)
		return e, st
	}

	oracle, ost := run(HarvestFull)
	defer oracle.Stop()
	live, lst := run(HarvestIncremental)
	defer live.Stop()

	for i := range oracle.Recorder.Series {
		a, b := oracle.Recorder.Series[i], live.Recorder.Series[i]
		a.PlanMs, b.PlanMs = 0, 0
		if a != b {
			t.Fatalf("interval %d diverges:\nfull        %+v\nincremental %+v", i, a, b)
		}
	}
	os, ls := oracle.LastSnapshots()[0], live.LastSnapshots()[0]
	if len(os.Keys) != len(ls.Keys) {
		t.Fatalf("snapshot sizes %d ≠ %d", len(ls.Keys), len(os.Keys))
	}
	for i := range os.Keys {
		if os.Keys[i] != ls.Keys[i] {
			t.Fatalf("snapshot entry %d: full %+v, incremental %+v", i, os.Keys[i], ls.Keys[i])
		}
	}
	if !reflect.DeepEqual(ost.LastDeltas(), lst.LastDeltas()) {
		t.Fatalf("final deltas diverge:\nfull        %+v\nincremental %+v", ost.LastDeltas(), lst.LastDeltas())
	}
	otab := map[tuple.Key]int{}
	ost.AssignmentRouter().Assignment().Table().Each(func(k tuple.Key, d int) { otab[k] = d })
	ltab := map[tuple.Key]int{}
	lst.AssignmentRouter().Assignment().Table().Each(func(k tuple.Key, d int) { ltab[k] = d })
	if !reflect.DeepEqual(otab, ltab) {
		t.Fatalf("routing tables diverge: full %v, incremental %v", otab, ltab)
	}
	if ost.Instances() != lst.Instances() {
		t.Fatalf("instance counts %d ≠ %d", lst.Instances(), ost.Instances())
	}
	for d := 0; d < ost.Instances(); d++ {
		if a, b := ost.StoreOf(d).TotalSize(), lst.StoreOf(d).TotalSize(); a != b {
			t.Fatalf("instance %d state: full %d, incremental %d", d, a, b)
		}
	}
	// The retained semantic must have actually engaged: the final
	// snapshot lists more keys than the final interval touched.
	var touched int
	for _, d := range lst.LastDeltas() {
		touched += len(d.Changed)
	}
	if len(ls.Keys) <= touched {
		t.Fatalf("retained snapshot (%d keys) no larger than final working set (%d) — carry-forward never engaged", len(ls.Keys), touched)
	}
}

// The retained snapshot covers the whole tracked population while the
// delta covers only the interval's working set — the O(Δkeys) property
// the control plane rides.
func TestRetainedSnapshotCarriesUntouchedKeys(t *testing.T) {
	st := statefulStage(2, 2)
	defer st.Stop()
	if err := st.SetHarvest(HarvestIncremental); err != nil {
		t.Fatal(err)
	}
	wide := make([]tuple.Tuple, 0, 256)
	for k := tuple.Key(0); k < 256; k++ {
		wide = append(wide, tuple.New(k, 1))
	}
	st.FeedBatch(wide)
	st.Barrier()
	if snap := st.EndInterval(1); len(snap.Keys) != 256 {
		t.Fatalf("interval 1 snapshot %d keys, want 256", len(snap.Keys))
	}
	st.FeedBatch([]tuple.Tuple{tuple.New(3, 1), tuple.New(7, 1)})
	st.Barrier()
	snap := st.EndInterval(2)
	if len(snap.Keys) != 256 {
		t.Fatalf("interval 2 snapshot %d keys, want the full 256-key population", len(snap.Keys))
	}
	var changed int
	for _, d := range st.LastDeltas() {
		changed += len(d.Changed)
		if d.Retired != nil {
			t.Fatalf("unexpected retirement %v", d.Retired)
		}
	}
	if changed != 2 {
		t.Fatalf("interval 2 delta carries %d changed keys, want 2", changed)
	}
}

// TestSnapshotLifetime pins the rule the recycled merge buffers impose
// and the control round relies on: the snapshot of close i is intact
// while round i runs (plans applied, state migrated) and after close
// i+1 — Engine.LastSnapshots' span — in every harvest mode, and a steady
// close allocates no new buffer for it.
func TestSnapshotLifetime(t *testing.T) {
	for _, mode := range []HarvestMode{HarvestTouched, HarvestFull, HarvestIncremental} {
		st := statefulStage(4, 2)
		if err := st.SetHarvest(mode); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var prev, prevCopy *stats.Snapshot
		var buf [2]*stats.KeyStat
		for i := int64(0); i < 8; i++ {
			// Every key every interval, at random frequencies: the
			// snapshots keep one size, so the buffers are sized once.
			ts := make([]tuple.Tuple, 400)
			for j := range ts {
				ts[j] = tuple.New(tuple.Key(j%150), nil)
				if j >= 150 {
					ts[j].Key = tuple.Key(rng.Intn(150))
				}
			}
			st.FeedBatch(ts)
			st.Barrier()
			snap := st.EndInterval(i)
			if len(snap.Keys) != 150 {
				t.Fatalf("%v: %d keys at close %d, want 150", mode, len(snap.Keys), i)
			}
			if prev != nil && !reflect.DeepEqual(prev, prevCopy) {
				t.Fatalf("%v: snapshot of close %d changed under close %d", mode, i-1, i)
			}
			cp := snap.Clone()
			// The round: move a few of the snapshot's keys, as a plan would.
			asg := st.AssignmentRouter().Assignment()
			plan := &balance.Plan{Table: asg.Table().Clone(), MoveDest: map[tuple.Key]int{}}
			for _, ks := range snap.Keys[:5] {
				dst := (ks.Dest + 1) % 4
				plan.Table.Put(ks.Key, dst)
				plan.Moved = append(plan.Moved, ks.Key)
				plan.MoveDest[ks.Key] = dst
			}
			if _, err := st.ApplyPlan(plan); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, cp) {
				t.Fatalf("%v: snapshot of close %d changed under its own round", mode, i)
			}
			if i < 2 {
				buf[i] = &snap.Keys[0]
			} else if &snap.Keys[0] != buf[i&1] {
				t.Fatalf("%v: close %d merged into a fresh buffer", mode, i)
			}
			prev, prevCopy = snap, cp
		}
		st.Stop()
	}
}
