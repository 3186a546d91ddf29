package stats

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/tuple"
)

// The merge-path retained close must stay bit-identical to the
// full-rescan oracle under any interleaving of observation, absorb,
// drop (retire) and adopt — the tracker-level half of the incremental
// ≡ full pin.
func TestRetainedScanMergeEquivalence(t *testing.T) {
	scan := NewTracker(3)
	merge := NewTracker(3)
	if err := scan.SetRetain(RetainScan); err != nil {
		t.Fatal(err)
	}
	if err := merge.SetRetain(RetainMerge); err != nil {
		t.Fatal(err)
	}
	stamp := func(ks *KeyStat) { ks.Hash = int(ks.Key) % 7 }
	rng := rand.New(rand.NewSource(23))
	live := map[tuple.Key]bool{}
	for interval := 0; interval < 40; interval++ {
		ops := 50 + rng.Intn(200)
		for i := 0; i < ops; i++ {
			k := tuple.Key(rng.Intn(300))
			switch rng.Intn(10) {
			case 0: // migrate away: drop state and stats
				scan.DropKey(k)
				merge.DropKey(k)
				delete(live, k)
			case 1: // migrate in: adopt windowed memory
				m := int64(1 + rng.Intn(50))
				scan.AdoptKey(k, m)
				merge.AdoptKey(k, m)
				live[k] = true
			case 2: // split fold-back: absorb replica aggregate
				c, f, m := int64(rng.Intn(20)), int64(rng.Intn(5)), int64(rng.Intn(30))
				scan.AbsorbKey(k, c, f, m)
				merge.AbsorbKey(k, c, f, m)
				if c != 0 || f != 0 || m != 0 {
					live[k] = true
				}
			default:
				cost, mem := int64(1+rng.Intn(9)), int64(rng.Intn(16))
				scan.ObserveKey(k, cost, mem)
				merge.ObserveKey(k, cost, mem)
				live[k] = true
			}
		}
		sRun, sD := scan.EndIntervalRetained(stamp)
		mRun, mD := merge.EndIntervalRetained(stamp)
		if !reflect.DeepEqual(sD, mD) {
			t.Fatalf("interval %d: deltas diverge\nscan:  %+v\nmerge: %+v", interval, sD, mD)
		}
		if len(sRun) != len(mRun) {
			t.Fatalf("interval %d: run lengths %d vs %d", interval, len(sRun), len(mRun))
		}
		for i := range sRun {
			if sRun[i] != mRun[i] {
				t.Fatalf("interval %d: run[%d] scan %+v merge %+v", interval, i, sRun[i], mRun[i])
			}
		}
		// The retained run covers exactly the live population.
		if len(sRun) < len(live) {
			t.Fatalf("interval %d: run %d entries, %d live keys", interval, len(sRun), len(live))
		}
	}
}

// Untouched keys carry forward with the statistics of their last
// change; retired keys leave the run and appear once in the delta.
func TestRetainedCarryForwardAndRetire(t *testing.T) {
	tr := NewTracker(2)
	if err := tr.SetRetain(RetainMerge); err != nil {
		t.Fatal(err)
	}
	tr.ObserveKey(1, 10, 4)
	tr.ObserveKey(2, 20, 8)
	run, d := tr.EndIntervalRetained(nil)
	if len(run) != 2 || d.Epoch != 2 || len(d.Changed) != 2 || d.Retired != nil {
		t.Fatalf("close 1: run=%v delta=%+v", run, d)
	}
	// Interval 2: only key 1 touched; key 2 must carry forward.
	tr.ObserveKey(1, 5, 0)
	run, d = tr.EndIntervalRetained(nil)
	if len(run) != 2 {
		t.Fatalf("close 2: run %v", run)
	}
	if run[0].Key != 2 || run[0].Cost != 20 {
		t.Fatalf("close 2: carried entry %+v, want key 2 cost 20", run[0])
	}
	if run[1].Key != 1 || run[1].Cost != 5 || run[1].Mem != 4 {
		// windowed mem for key 1: interval-1 slot 4 + interval-2 slot 0
		t.Fatalf("close 2: changed entry %+v", run[1])
	}
	if len(d.Changed) != 1 || d.Changed[0].Key != 1 || d.Retired != nil {
		t.Fatalf("close 2: delta %+v", d)
	}
	// Interval 3: key 2 migrates away; nothing else happens.
	tr.DropKey(2)
	run, d = tr.EndIntervalRetained(nil)
	if len(run) != 1 || run[0].Key != 1 {
		t.Fatalf("close 3: run %v", run)
	}
	if len(d.Changed) != 0 || len(d.Retired) != 1 || d.Retired[0] != 2 {
		t.Fatalf("close 3: delta %+v", d)
	}
	// A drop followed by re-observation in the same interval is a
	// change, not a retirement.
	tr.DropKey(1)
	tr.ObserveKey(1, 7, 0)
	run, d = tr.EndIntervalRetained(nil)
	if len(run) != 1 || run[0].Cost != 7 {
		t.Fatalf("close 4: run %v", run)
	}
	if len(d.Changed) != 1 || d.Retired != nil {
		t.Fatalf("close 4: delta %+v", d)
	}
}

// An adopted key must surface in the adopter's next retained close
// (zero cost, migrated windowed memory) so the population mirrors
// stay coherent across a migration.
func TestRetainedAdoptSurfacesKey(t *testing.T) {
	tr := NewTracker(2)
	if err := tr.SetRetain(RetainMerge); err != nil {
		t.Fatal(err)
	}
	tr.ObserveKey(1, 1, 0)
	tr.EndIntervalRetained(nil) // finished > 0 so AdoptKey takes the hist path
	tr.AdoptKey(9, 42)
	run, d := tr.EndIntervalRetained(nil)
	found := false
	for _, ks := range run {
		if ks.Key == 9 {
			found = true
			if ks.Cost != 0 || ks.Mem != 42 {
				t.Fatalf("adopted key entry %+v, want cost 0 mem 42", ks)
			}
		}
	}
	if !found {
		t.Fatalf("adopted key missing from retained run %v", run)
	}
	if len(d.Changed) != 1 || d.Changed[0].Key != 9 {
		t.Fatalf("delta %+v, want adopted key changed", d)
	}
}

// Pinned: TopK never surfaces zero-cost cells — an adopted or retired
// key carries no load evidence, and reporting it would let delta
// retirement resurrect dead keys in the hot-key detector's input.
func TestTopKSkipsZeroCostCells(t *testing.T) {
	tr := NewTracker(2)
	if err := tr.SetRetain(RetainMerge); err != nil {
		t.Fatal(err)
	}
	tr.ObserveKey(1, 1, 0)
	tr.EndIntervalRetained(nil)
	tr.AdoptKey(9, 42) // zero-cost touch in the new interval
	tr.ObserveKey(2, 5, 0)
	top := tr.TopK(10)
	if len(top) != 1 || top[0].Key != 2 {
		t.Fatalf("TopK = %v, want only key 2 (adopted key 9 is zero-cost)", top)
	}
	// Same contract without retain: a state-only observation is
	// reported by EndInterval but is not hot-key evidence.
	lt := NewTracker(1)
	lt.ObserveKey(3, 0, 8)
	if top := lt.TopK(4); top != nil {
		t.Fatalf("TopK over zero-cost-only interval = %v, want nil", top)
	}
}

// Pinned: Keys() must not resurrect a key whose history has fully
// drained — stale cells persist physically after the epoch rolls, but
// they are not history.
func TestKeysSkipsStaleCells(t *testing.T) {
	tr := NewTracker(1)
	tr.ObserveKey(5, 3, 0) // no state: hist slot entry is 0-valued but present
	tr.EndInterval()
	// Interval 2: key 5 untouched. Its hist slot from interval 1 still
	// exists (window 1), so it remains history.
	tr.ObserveKey(6, 1, 0)
	tr.EndInterval()
	// Interval 3: key 5's slot has been evicted; only its stale cell
	// remains. Keys must now exclude it.
	got := tr.Keys()
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("Keys = %v, want [6]", got)
	}
}

func TestSetRetainRejectsHistory(t *testing.T) {
	tr := NewTracker(1)
	tr.ObserveKey(1, 1, 0)
	if err := tr.SetRetain(RetainMerge); err == nil {
		t.Fatal("SetRetain accepted a tracker with dirty keys")
	}
	tr2 := NewTracker(1)
	tr2.EndInterval()
	if err := tr2.SetRetain(RetainScan); err == nil {
		t.Fatal("SetRetain accepted a tracker with finished intervals")
	}
}

// Restamp refreshes carried entries' hash destinations in place, in
// both retained representations, without disturbing run order.
func TestRestampRefreshesCarriedEntries(t *testing.T) {
	for _, mode := range []RetainMode{RetainScan, RetainMerge} {
		tr := NewTracker(1)
		if err := tr.SetRetain(mode); err != nil {
			t.Fatal(err)
		}
		hash := 1
		stamp := func(ks *KeyStat) { ks.Hash = hash }
		tr.ObserveKey(1, 10, 0)
		tr.ObserveKey(2, 20, 0)
		tr.EndIntervalRetained(stamp)
		hash = 2 // "ring resized"
		tr.Restamp(stamp)
		tr.ObserveKey(1, 1, 0)
		run, _ := tr.EndIntervalRetained(stamp)
		for _, ks := range run {
			if ks.Hash != 2 {
				t.Fatalf("mode %v: entry %+v kept stale hash", mode, ks)
			}
		}
	}
}

// The harvest over the dirty list must equal what a full table scan
// would have produced — dropped-then-retouched keys count
// once, dropped keys not at all.
func TestEndIntervalAfterDropAndRetouch(t *testing.T) {
	tr := NewTracker(1)
	tr.ObserveKey(1, 5, 0)
	tr.ObserveKey(2, 6, 0)
	tr.DropKey(1)
	tr.ObserveKey(1, 3, 0) // re-touched: chained twice, must count once
	tr.DropKey(2)          // gone for good
	out := tr.EndInterval()
	if len(out) != 1 || out[0].Key != 1 || out[0].Cost != 3 || out[0].Freq != 1 {
		t.Fatalf("EndInterval = %v, want key 1 cost 3 freq 1 only", out)
	}
}
