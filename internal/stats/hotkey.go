package stats

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/tuple"
)

// HotKey is a detector verdict: key k should run split across Fan
// replicas this interval.
type HotKey struct {
	Key tuple.Key
	Fan int
}

// HotKeyDetector decides, interval by interval, which keys are hot
// enough to split — the Doppel-style contention detector adapted to
// cost-per-interval load. A key enters the split set when its interval
// cost reaches EnterRatio × the per-task service capacity (one task
// can no longer keep up with the key alone), and leaves only when its
// cost drops below ExitFraction of that entry threshold — the
// hysteresis band that keeps keys hovering near the threshold from
// flapping in and out of the split set every interval. At most
// MaxSplit keys are split at once, hottest first.
//
// The detector is deliberately snapshot-driven: it consumes the sorted
// per-interval key statistics the control plane already harvests
// (Snapshot.Keys, or one task's Tracker.EndInterval run) and keeps only
// the active set as state, so it drops into a control.Policy without
// touching the data plane.
type HotKeyDetector struct {
	// MaxSplit bounds the number of concurrently split keys.
	MaxSplit int
	// EnterRatio × capacity is the cost at which a key becomes split.
	EnterRatio float64
	// ExitFraction × EnterRatio × capacity is the cost below which an
	// active key folds back for good. Must be < 1 for real hysteresis.
	ExitFraction float64

	active map[tuple.Key]int // key → current fan
}

// DefExitFraction is the default hysteresis band: a split key must
// cool to 70% of the entry threshold before it unsplits.
const DefExitFraction = 0.7

// NewHotKeyDetector returns a detector splitting at most maxSplit keys
// once their interval cost reaches enterRatio × capacity. maxSplit < 1
// is clamped to 1; enterRatio ≤ 0 defaults to 1 (split as soon as a
// key saturates a whole task).
func NewHotKeyDetector(maxSplit int, enterRatio float64) *HotKeyDetector {
	if maxSplit < 1 {
		maxSplit = 1
	}
	if enterRatio <= 0 {
		enterRatio = 1
	}
	return &HotKeyDetector{
		MaxSplit:     maxSplit,
		EnterRatio:   enterRatio,
		ExitFraction: DefExitFraction,
		active:       make(map[tuple.Key]int),
	}
}

// Update consumes one finished interval's per-key statistics (sorted
// by KeyStatLess — Snapshot.Keys or a Tracker.EndInterval run) and returns
// the new split set (sorted by key) plus whether it differs from the
// previous interval's. capacity is the per-task service capacity the
// cost thresholds are relative to; nd bounds each key's fan. A
// non-positive capacity or nd < 2 disables detection (no instance to
// split across), folding every active key back.
func (d *HotKeyDetector) Update(keys []KeyStat, capacity int64, nd int) ([]HotKey, bool) {
	if d.active == nil {
		d.active = make(map[tuple.Key]int)
	}
	next := make(map[tuple.Key]int, len(d.active))
	if capacity > 0 && nd >= 2 {
		enter := d.EnterRatio * float64(capacity)
		exit := enter * d.ExitFraction
		for i := range keys {
			cost := float64(keys[i].Cost)
			if cost < exit {
				break // sorted desc: nothing colder can qualify
			}
			k := keys[i].Key
			fan := clampFan(int(math.Ceil(cost/float64(capacity))), nd)
			if old, ok := d.active[k]; ok {
				// Hysteresis: stay split above the exit threshold, and
				// never shrink the fan while split — fan only grows with
				// demand and resets when the key leaves the set.
				if fan < old {
					fan = old
				}
				next[k] = fan
			} else if cost >= enter && len(next) < d.MaxSplit {
				next[k] = fan
			}
		}
	}
	changed := len(next) != len(d.active)
	if !changed {
		for k, fan := range next {
			if d.active[k] != fan {
				changed = true
				break
			}
		}
	}
	d.active = next
	out := make([]HotKey, 0, len(next))
	for k, fan := range next {
		out = append(out, HotKey{Key: k, Fan: fan})
	}
	slices.SortFunc(out, func(a, b HotKey) int { return cmp.Compare(a.Key, b.Key) })
	return out, changed
}

// Active returns the current split set size.
func (d *HotKeyDetector) Active() int { return len(d.active) }

func clampFan(fan, nd int) int {
	if fan < 2 {
		fan = 2
	}
	if fan > nd {
		fan = nd
	}
	return fan
}
