package stats

import (
	"math/rand"
	"testing"

	"repro/internal/tuple"
)

// TestTopKMatchesEndInterval pins TopK's contract: on an identically
// fed twin tracker, TopK(n) must equal the first n entries of
// SortByCostDesc over EndInterval's full map — same cost, frequency
// and post-roll windowed memory — across interval rolls, key churn and
// every n from under- to over-sized.
func TestTopKMatchesEndInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a, b := NewTracker(3), NewTracker(3)
	for interval := 0; interval < 7; interval++ {
		nKeys := 20 + rng.Intn(180)
		for i := 0; i < 3000; i++ {
			k := tuple.Key(rng.Intn(nKeys))
			cost, mem := int64(1+rng.Intn(9)), int64(rng.Intn(4))
			a.ObserveKey(k, cost, mem)
			b.ObserveKey(k, cost, mem)
		}
		for _, n := range []int{1, 5, nKeys / 2, nKeys, nKeys * 2} {
			got := a.TopK(n)
			full := make([]KeyStat, 0, nKeys)
			// Replay EndInterval's view without closing a: the twin b
			// closes for real below, so compare against its map on the
			// final n only after the roll. Mid-loop, compare heap output
			// against a full sort of another TopK call with huge n —
			// TopK(∞) must itself match EndInterval, checked below.
			full = append(full, a.TopK(nKeys*4)...)
			want := full
			if n < len(full) {
				want = full[:n]
			}
			if len(got) != len(want) {
				t.Fatalf("interval %d TopK(%d): %d entries, want %d", interval, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("interval %d TopK(%d)[%d] = %+v, want %+v", interval, n, i, got[i], want[i])
				}
			}
		}
		// The oracle: TopK over everything, taken immediately before the
		// roll, must reproduce EndInterval's map exactly.
		top := a.TopK(nKeys * 4)
		am, bm := byKey(a.EndInterval()), byKey(b.EndInterval())
		if len(top) != len(am) {
			t.Fatalf("interval %d: TopK sees %d keys, EndInterval %d", interval, len(top), len(am))
		}
		for _, ks := range top {
			if am[ks.Key] != ks {
				t.Fatalf("interval %d key %d: TopK %+v, EndInterval %+v", interval, ks.Key, ks, am[ks.Key])
			}
		}
		// And the twin trackers agree (sanity that feeding was identical).
		if len(am) != len(bm) {
			t.Fatalf("twin trackers diverged: %d vs %d keys", len(am), len(bm))
		}
		for k, ks := range am {
			if bm[k] != ks {
				t.Fatalf("twin trackers diverged on key %d", k)
			}
		}
	}
}

// TestTopKEmptyAndZero covers the degenerate corners.
func TestTopKEmptyAndZero(t *testing.T) {
	tr := NewTracker(2)
	if got := tr.TopK(5); got != nil {
		t.Fatalf("TopK on empty tracker = %v, want nil", got)
	}
	tr.ObserveKey(1, 10, 0)
	if got := tr.TopK(0); got != nil {
		t.Fatalf("TopK(0) = %v, want nil", got)
	}
}

// TestHotKeyDetectorHysteresis pins the enter/exit band: a key splits
// at EnterRatio × capacity, stays split while above the exit
// threshold, folds back below it, and its fan never shrinks while
// active.
func TestHotKeyDetectorHysteresis(t *testing.T) {
	d := NewHotKeyDetector(4, 1.0) // enter at cost ≥ 1000, exit below 700
	const capacity, nd = 1000, 8
	snap := func(cost int64) []KeyStat {
		return []KeyStat{{Key: 42, Cost: cost, Freq: cost}}
	}

	if hot, changed := d.Update(snap(900), capacity, nd); len(hot) != 0 || changed {
		t.Fatalf("cost 900 below enter: hot=%v changed=%v", hot, changed)
	}
	hot, changed := d.Update(snap(2500), capacity, nd)
	if !changed || len(hot) != 1 || hot[0].Key != 42 || hot[0].Fan != 3 {
		t.Fatalf("cost 2500: hot=%v changed=%v, want key 42 fan 3", hot, changed)
	}
	// Cooling to 800 — below enter, above exit — stays split, fan kept.
	hot, changed = d.Update(snap(800), capacity, nd)
	if changed || len(hot) != 1 || hot[0].Fan != 3 {
		t.Fatalf("cost 800 inside band: hot=%v changed=%v", hot, changed)
	}
	// Heating to 5000 grows the fan (never shrinks).
	hot, changed = d.Update(snap(5000), capacity, nd)
	if !changed || hot[0].Fan != 5 {
		t.Fatalf("cost 5000: hot=%v changed=%v, want fan 5", hot, changed)
	}
	if hot, _ = d.Update(snap(1200), capacity, nd); hot[0].Fan != 5 {
		t.Fatalf("fan shrank to %d while active", hot[0].Fan)
	}
	// Cooling below exit folds back.
	hot, changed = d.Update(snap(600), capacity, nd)
	if !changed || len(hot) != 0 {
		t.Fatalf("cost 600 below exit: hot=%v changed=%v", hot, changed)
	}
	// Re-entry needs the full enter threshold again, with a fresh fan.
	if hot, _ = d.Update(snap(800), capacity, nd); len(hot) != 0 {
		t.Fatalf("cost 800 re-split without reaching enter: %v", hot)
	}
	hot, _ = d.Update(snap(1000), capacity, nd)
	if len(hot) != 1 || hot[0].Fan != 2 {
		t.Fatalf("re-entry at 1000: %v, want fan 2 (clamped floor)", hot)
	}
}

// TestHotKeyDetectorBounds pins MaxSplit, the fan clamp to nd, and the
// disabled modes (capacity ≤ 0, nd < 2 fold everything back).
func TestHotKeyDetectorBounds(t *testing.T) {
	d := NewHotKeyDetector(2, 1.0)
	keys := []KeyStat{
		{Key: 1, Cost: 9000}, {Key: 2, Cost: 8000},
		{Key: 3, Cost: 7000}, {Key: 4, Cost: 6000},
	}
	hot, _ := d.Update(keys, 1000, 3)
	if len(hot) != 2 {
		t.Fatalf("MaxSplit=2 but %d keys split", len(hot))
	}
	for _, h := range hot {
		if h.Fan != 3 {
			t.Fatalf("fan %d exceeds nd=3", h.Fan)
		}
	}
	if hot, changed := d.Update(keys, 0, 3); len(hot) != 0 || !changed {
		t.Fatalf("capacity 0 must fold everything: hot=%v changed=%v", hot, changed)
	}
	hot, _ = d.Update(keys, 1000, 3)
	if len(hot) != 2 {
		t.Fatalf("re-arm after disable: %d split", len(hot))
	}
	if hot, _ := d.Update(keys, 1000, 1); len(hot) != 0 {
		t.Fatalf("nd=1 must fold everything: %v", hot)
	}
}
