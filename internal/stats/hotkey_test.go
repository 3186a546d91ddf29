package stats

import "testing"

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
