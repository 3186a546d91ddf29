package stats

import (
	"slices"
	"sort"

	"repro/internal/tuple"
)

// refSortByCostDesc is the reflection-based sort SortByCostDesc used to
// be.
func refSortByCostDesc(keys []KeyStat) {
	sort.Slice(keys, func(i, j int) bool { return KeyStatLess(keys[i], keys[j]) })
}

// refTracker is the plainest statement of what a Tracker reports, kept
// as the reference model TestTrackerMatchesReferenceModel pins it to:
// the current interval is a Go map from key to its running figures, and
// the window is a ring of maps, one per finished interval, summed key by
// key for S(k, w). It shares no code with the key directory.
type refTracker struct {
	window   int
	cur      map[tuple.Key]*KeyStat
	hist     []map[tuple.Key]int64
	next     int
	finished int64
}

func newRefTracker(w int) *refTracker {
	if w < 1 {
		w = 1
	}
	return &refTracker{window: w, cur: map[tuple.Key]*KeyStat{}, hist: make([]map[tuple.Key]int64, w)}
}

func (t *refTracker) touch(k tuple.Key) *KeyStat {
	c := t.cur[k]
	if c == nil {
		c = &KeyStat{Key: k}
		t.cur[k] = c
	}
	return c
}

func (t *refTracker) ObserveBatch(ts []tuple.Tuple) {
	for _, tp := range ts {
		c := t.touch(tp.Key)
		c.Cost += tp.Cost
		c.Freq++
		c.Mem += tp.StateSize
	}
}

// AbsorbKey adds an aggregated contribution; an all-zero one touches
// nothing.
func (t *refTracker) AbsorbKey(k tuple.Key, cost, freq, mem int64) {
	if cost == 0 && freq == 0 && mem == 0 {
		return
	}
	c := t.touch(k)
	c.Cost += cost
	c.Freq += freq
	c.Mem += mem
}

func (t *refTracker) DropKey(k tuple.Key) {
	delete(t.cur, k)
	for _, h := range t.hist {
		delete(h, k)
	}
}

// AdoptKey records mem in the most recently finished interval, or in the
// current one while none has finished.
func (t *refTracker) AdoptKey(k tuple.Key, mem int64) {
	if t.finished == 0 {
		t.touch(k).Mem += mem
		return
	}
	last := (t.next - 1 + t.window) % t.window
	if t.hist[last] == nil {
		t.hist[last] = map[tuple.Key]int64{}
	}
	t.hist[last][k] += mem
}

// EndInterval rolls the finished interval's state sizes into the ring,
// evicting the slot from w intervals ago, and returns every touched
// key's figures with Mem = S(k, w).
func (t *refTracker) EndInterval() map[tuple.Key]KeyStat {
	slot := make(map[tuple.Key]int64, len(t.cur))
	for k, c := range t.cur {
		slot[k] = c.Mem
	}
	t.hist[t.next] = slot
	t.next = (t.next + 1) % t.window
	t.finished++
	out := make(map[tuple.Key]KeyStat, len(t.cur))
	for k, c := range t.cur {
		out[k] = KeyStat{Key: k, Cost: c.Cost, Freq: c.Freq, Mem: t.WindowedMem(k)}
	}
	t.cur = map[tuple.Key]*KeyStat{}
	return out
}

func (t *refTracker) WindowedMem(k tuple.Key) int64 {
	var s int64
	for _, h := range t.hist {
		s += h[k]
	}
	return s
}

// Keys lists, in ascending order, every key touched this interval or
// holding a record in a finished interval of the window.
func (t *refTracker) Keys() []tuple.Key {
	seen := map[tuple.Key]bool{}
	for k := range t.cur {
		seen[k] = true
	}
	for _, h := range t.hist {
		for k := range h {
			seen[k] = true
		}
	}
	out := make([]tuple.Key, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
