package stats

import (
	"sort"

	"repro/internal/tuple"
)

// refCell and refTab stand in for the open-addressed cell table: the
// model keeps its cells in a Go map.
type refCell struct {
	key   tuple.Key
	epoch uint64
	cost  int64
	freq  int64
	mem   int64
}

type refTab struct{ m map[tuple.Key]*refCell }

func (t *refTab) upsert(k tuple.Key) *refCell {
	if t.m == nil {
		t.m = make(map[tuple.Key]*refCell)
	}
	c := t.m[k]
	if c == nil {
		c = &refCell{key: k}
		t.m[k] = c
	}
	return c
}

func (t *refTab) lookup(k tuple.Key) *refCell { return t.m[k] }

func (t *refTab) del(k tuple.Key) { delete(t.m, k) }

func (t *refTab) each(fn func(*refCell)) {
	for _, c := range t.m {
		fn(c)
	}
}

// refSortByCostDesc is the reflection-based sort SortByCostDesc used to
// be.
func refSortByCostDesc(keys []KeyStat) {
	sort.Slice(keys, func(i, j int) bool { return KeyStatLess(keys[i], keys[j]) })
}

// refTracker is the tracker this package shipped before the map-free
// window, kept as the reference model the randomized tests pin Tracker
// against: the window is a ring of Go maps (one per finished interval,
// rebuilt every close, summed key by key for S(k, w)), the close
// returns a map, every ordering goes through sort.Slice, and cells carry
// the epoch of their last touch instead of a dirty flag. It shares no
// code with the production tracker.
type refTracker struct {
	window int
	cur    refTab
	// epoch identifies the in-progress interval (starts at 1 so a fresh
	// cell never matches); a cell with another epoch is stale.
	epoch uint64
	// dirty chains each key at its first touch of the interval.
	// dirtyDropped counts current-epoch cells deleted by DropKey: a drop
	// followed by a re-touch chains the key twice, and the harvest then
	// dedups through a map.
	dirty        []tuple.Key
	dirtyDropped int
	// hist[j] holds a finished interval's per-key state sizes; the ring
	// covers the last `window` finished intervals, next is the slot the
	// next one lands in.
	hist     []map[tuple.Key]int64
	next     int
	finished int64
}

// newRefTracker returns a tracker keeping a state window of w intervals.
// w < 1 is clamped to 1 (the paper's minimum, instantaneous state).
func newRefTracker(w int) *refTracker {
	if w < 1 {
		w = 1
	}
	return &refTracker{
		window: w,
		epoch:  1,
		hist:   make([]map[tuple.Key]int64, w),
	}
}

// touch returns k's current-interval cell, resetting a stale one and
// chaining the key into the dirty list on its first touch of the
// interval.
func (t *refTracker) touch(k tuple.Key) *refCell {
	c := t.cur.upsert(k)
	if c.epoch != t.epoch {
		c.epoch = t.epoch
		c.cost, c.freq, c.mem = 0, 0, 0
		t.dirty = append(t.dirty, k)
	}
	return c
}

// ObserveKey charges cost and state directly, letting workload drivers
// skip tuple construction in tight loops.
func (t *refTracker) ObserveKey(k tuple.Key, cost, state int64) {
	c := t.touch(k)
	c.cost += cost
	c.freq++
	c.mem += state
}

// ObserveBatch folds a batch tuple by tuple and returns its total cost.
func (t *refTracker) ObserveBatch(ts []tuple.Tuple) int64 {
	var total int64
	for i := range ts {
		t.ObserveKey(ts[i].Key, ts[i].Cost, ts[i].StateSize)
		total += ts[i].Cost
	}
	return total
}

// AbsorbKey folds an already-aggregated (cost, freq, mem) contribution
// into k's current-interval cell. The hot-key fold-back path uses it
// to charge a split key's replica work to the key's home task before
// harvest: the adds are plain integer sums, so absorbing replica
// deltas in any order yields the same cell an unsplit run would have
// accumulated tuple by tuple.
func (t *refTracker) AbsorbKey(k tuple.Key, cost, freq, mem int64) {
	if cost == 0 && freq == 0 && mem == 0 {
		return
	}
	c := t.touch(k)
	c.cost += cost
	c.freq += freq
	c.mem += mem
}

// DropKey forgets all history for k. The state store calls this when a
// key's state migrates away so the source task stops reporting it.
func (t *refTracker) DropKey(k tuple.Key) {
	if c := t.cur.lookup(k); c != nil {
		if c.epoch == t.epoch {
			t.dirtyDropped++
		}
		t.cur.del(k)
	}
	for _, h := range t.hist {
		delete(h, k)
	}
}

// AdoptKey seeds windowed memory for a key that just migrated in, so
// S(k,w) remains continuous across migration. The memory is recorded in
// the most recently finished interval slot (or the current one if none
// has finished yet).
func (t *refTracker) AdoptKey(k tuple.Key, mem int64) {
	if t.finished == 0 {
		t.touch(k).mem += mem
		return
	}
	last := (t.next - 1 + t.window) % t.window
	if t.hist[last] == nil {
		t.hist[last] = make(map[tuple.Key]int64)
	}
	t.hist[last][k] += mem
}

// harvestDirty calls fn once per key touched this interval, in chain
// order, skipping keys whose cell was dropped after the touch. The
// dedup map is only built when a DropKey actually created a possible
// duplicate this interval.
func (t *refTracker) harvestDirty(fn func(k tuple.Key, c *refCell)) {
	if t.dirtyDropped == 0 {
		for _, k := range t.dirty {
			if c := t.cur.lookup(k); c != nil && c.epoch == t.epoch {
				fn(k, c)
			}
		}
		return
	}
	seen := make(map[tuple.Key]struct{}, len(t.dirty))
	for _, k := range t.dirty {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if c := t.cur.lookup(k); c != nil && c.epoch == t.epoch {
			fn(k, c)
		}
	}
}

// rollWindow rolls the just-finished interval's state sizes into the
// ring, evicting the slot from w intervals ago (the paper's model:
// state from T_{i-w} is erased after T_i completes).
func (t *refTracker) rollWindow() {
	slot := make(map[tuple.Key]int64, len(t.dirty))
	t.harvestDirty(func(k tuple.Key, c *refCell) {
		slot[k] = c.mem
	})
	t.hist[t.next] = slot
	t.next = (t.next + 1) % t.window
	t.finished++
}

// closeInterval advances the epoch and clears the per-interval
// bookkeeping; the stale cells stay in place until their next touch.
func (t *refTracker) closeInterval() {
	t.epoch++
	t.dirty = t.dirty[:0]
	t.dirtyDropped = 0
}

// EndInterval closes the current interval, rolls the state window and
// returns the per-key statistics of the finished interval: cost c(k),
// frequency g(k) and the windowed memory S(k, w) including the interval
// just finished. Only the interval's dirty keys are visited — the
// close costs O(touched keys), not O(table capacity).
func (t *refTracker) EndInterval() map[tuple.Key]KeyStat {
	t.rollWindow()
	out := make(map[tuple.Key]KeyStat, len(t.dirty))
	t.harvestDirty(func(k tuple.Key, c *refCell) {
		out[k] = KeyStat{Key: k, Cost: c.cost, Freq: c.freq, Mem: t.WindowedMem(k)}
	})
	t.closeInterval()
	return out
}

// TopK returns the n hottest keys of the interval in progress without
// closing it: the nonzero-cost subset of the map EndInterval would
// return right now (same cost/freq, same post-roll windowed memory),
// ordered by SortByCostDesc and cut to n — computed with one bounded
// min-heap over the interval's dirty keys, O(touched · log n) time and
// O(n) allocation. Zero-cost cells are never candidates: a merely
// adopted cell carries no load evidence for the hot-key detector, which
// polls TopK every interval.
func (t *refTracker) TopK(n int) []KeyStat {
	if n <= 0 || len(t.dirty) == 0 {
		return nil
	}
	// colder orders by the inverse of KeyStatLess (Dest is zero for
	// every candidate, matching EndInterval's map), so the heap root is
	// always the weakest current member.
	colder := func(a, b KeyStat) bool {
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return a.Key > b.Key
	}
	heap := make([]KeyStat, 0, n)
	t.harvestDirty(func(_ tuple.Key, c *refCell) {
		if c.cost == 0 {
			return
		}
		ks := KeyStat{Key: c.key, Cost: c.cost, Freq: c.freq, Mem: c.mem}
		if len(heap) < n {
			heap = append(heap, ks)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !colder(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			return
		}
		if !colder(heap[0], ks) {
			return
		}
		heap[0] = ks
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && colder(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && colder(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	})
	if len(heap) == 0 {
		return nil
	}
	// EndInterval reports Mem post-roll: the current interval's state
	// lands in slot t.next (evicting the interval from w ago) and then
	// S(k, w) sums the whole ring. Equivalently, for a live cell: its
	// current mem plus every finished slot except the one about to be
	// evicted.
	for i := range heap {
		for j, h := range t.hist {
			if j == t.next {
				continue
			}
			heap[i].Mem += h[heap[i].Key]
		}
	}
	refSortByCostDesc(heap)
	return heap
}

// WindowedMem returns S(k, w) = Σ_{j=i-w+1..i} s_j(k) over the finished
// intervals currently in the window.
func (t *refTracker) WindowedMem(k tuple.Key) int64 {
	var s int64
	for _, h := range t.hist {
		s += h[k]
	}
	return s
}

// Keys returns every key with any recorded history in ascending order:
// current-interval observations or windowed memory in a finished slot.
// Stale cells (keys whose last touch was an already-harvested interval
// and whose window has drained) are skipped, so a retired key cannot
// resurrect in scale-in or detector input.
func (t *refTracker) Keys() []tuple.Key {
	hint := len(t.cur.m)
	for _, h := range t.hist {
		if len(h) > hint {
			hint = len(h)
		}
	}
	seen := make(map[tuple.Key]struct{}, hint)
	t.cur.each(func(c *refCell) {
		if c.epoch == t.epoch {
			seen[c.key] = struct{}{}
		}
	})
	for _, h := range t.hist {
		for k := range h {
			seen[k] = struct{}{}
		}
	}
	out := make([]tuple.Key, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
