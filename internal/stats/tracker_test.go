package stats

import (
	"testing"

	"repro/internal/state"
	"repro/internal/tuple"
)

// observe charges one tuple of cost and state size to key k.
func observe(tr *Tracker, k tuple.Key, cost, state int64) {
	tr.ObserveBatch([]tuple.Tuple{{Key: k, Cost: cost, StateSize: state}})
}

// takeKey migrates key k out of the tracker's directory the way a plan
// moves it (state.Dir.Move) and returns its window sum S(k, w); the
// key's statistics are gone from the tracker afterwards.
func takeKey(tr *Tracker, k tuple.Key) (mem int64) {
	tr.d.Move([]tuple.Key{k}, func(_ int, _ state.Migrated, m int64) { mem = m })
	return mem
}

// Pinned: Keys() must not resurrect a key whose history has fully
// drained out of the window.
func TestKeysSkipsStaleCells(t *testing.T) {
	tr := NewTracker(1)
	observe(tr, 5, 3, 0) // no state: hist slot entry is 0-valued but present
	tr.EndInterval()
	// Interval 2: key 5 untouched. Its hist slot from interval 1 still
	// exists (window 1), so it remains history.
	observe(tr, 6, 1, 0)
	tr.EndInterval()
	// Interval 3: key 5's record has left the window. Keys must now
	// exclude it.
	got := tr.Keys()
	if len(got) != 1 || got[0] != 6 {
		t.Fatalf("Keys = %v, want [6]", got)
	}
}

// The harvest over the current list must equal what a full table scan
// would have produced — dropped-then-retouched keys count once, dropped
// keys not at all.
func TestEndIntervalAfterDropAndRetouch(t *testing.T) {
	tr := NewTracker(1)
	observe(tr, 1, 5, 0)
	observe(tr, 2, 6, 0)
	takeKey(tr, 1)
	observe(tr, 1, 3, 0) // re-touched after the drop: counts once
	takeKey(tr, 2)       // gone for good
	out := tr.EndInterval()
	if len(out) != 1 || out[0].Key != 1 || out[0].Cost != 3 || out[0].Freq != 1 {
		t.Fatalf("EndInterval = %v, want key 1 cost 3 freq 1 only", out)
	}
}
