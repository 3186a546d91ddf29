package stats

import "testing"

// Pinned: TopK never surfaces zero-cost cells — a key adopted before
// the first close, or one observed with state but no cost, carries no
// load evidence for the hot-key detector.
func TestTopKSkipsZeroCostCells(t *testing.T) {
	tr := NewTracker(2)
	tr.AdoptKey(9, 42) // zero-cost touch: no interval has finished yet
	tr.ObserveKey(2, 5, 0)
	top := tr.TopK(10)
	if len(top) != 1 || top[0].Key != 2 {
		t.Fatalf("TopK = %v, want only key 2 (adopted key 9 is zero-cost)", top)
	}
	// A state-only observation is reported by EndInterval but is not
	// hot-key evidence.
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
