package state

import (
	"sort"

	"repro/internal/tuple"
)

// refStore is the map-based store this package shipped before the flat
// layout, kept as the reference model the randomized tests pin Store
// against: a Go map of per-key bucket lists, a fresh entry slice per key
// per interval, and a close that ranges over every live key.
//
// One deliberate difference is left in: refStore prunes lazily, so a
// bucket injected already older than the window is counted by
// TotalSize/KeyCount/Keys until the key is next touched or an interval
// closes; Store evicts it on arrival. The model test touches the
// injected key (Size) before comparing those three.
type refStore struct {
	window   int
	interval int64
	keys     map[tuple.Key]*refKeyState
	total    int64
}

type refKeyState struct {
	buckets []bucket
	size    int64
}

func newRefStore(w int) *refStore {
	if w < 1 {
		w = 1
	}
	return &refStore{window: w, keys: make(map[tuple.Key]*refKeyState)}
}

func (s *refStore) Add(k tuple.Key, e Entry) {
	ks := s.keys[k]
	if ks == nil {
		ks = &refKeyState{}
		s.keys[k] = ks
	}
	n := len(ks.buckets)
	if n == 0 || ks.buckets[n-1].interval != s.interval {
		ks.buckets = append(ks.buckets, bucket{interval: s.interval})
		n++
	}
	b := &ks.buckets[n-1]
	b.entries = append(b.entries, e)
	b.size += e.Size
	ks.size += e.Size
	s.total += e.Size
}

func (s *refStore) Entries(k tuple.Key) []Entry {
	ks := s.keys[k]
	if ks == nil {
		return nil
	}
	s.prune(k, ks)
	var out []Entry
	for _, b := range ks.buckets {
		out = append(out, b.entries...)
	}
	return out
}

func (s *refStore) Size(k tuple.Key) int64 {
	ks := s.keys[k]
	if ks == nil {
		return 0
	}
	s.prune(k, ks)
	return ks.size
}

func (s *refStore) TotalSize() int64 { return s.total }

func (s *refStore) KeyCount() int { return len(s.keys) }

func (s *refStore) Keys() []tuple.Key {
	out := make([]tuple.Key, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	return out
}

func (s *refStore) EndInterval() {
	s.interval++
	for k, ks := range s.keys {
		s.prune(k, ks)
	}
}

func (s *refStore) prune(k tuple.Key, ks *refKeyState) {
	oldest := s.interval - int64(s.window)
	i := 0
	for i < len(ks.buckets) && ks.buckets[i].interval < oldest {
		ks.size -= ks.buckets[i].size
		s.total -= ks.buckets[i].size
		i++
	}
	if i > 0 {
		ks.buckets = ks.buckets[i:]
	}
	if len(ks.buckets) == 0 {
		delete(s.keys, k)
	}
}

func (s *refStore) Extract(k tuple.Key) Migrated {
	ks := s.keys[k]
	if ks == nil {
		return Migrated{Key: k}
	}
	s.prune(k, ks)
	if len(ks.buckets) == 0 {
		return Migrated{Key: k}
	}
	m := Migrated{Key: k, Size: ks.size, buckets: ks.buckets}
	s.total -= ks.size
	delete(s.keys, k)
	return m
}

func (s *refStore) Inject(m Migrated) {
	if len(m.buckets) == 0 {
		return
	}
	ks := s.keys[m.Key]
	if ks == nil {
		ks = &refKeyState{}
		s.keys[m.Key] = ks
	}
	merged := make([]bucket, 0, len(ks.buckets)+len(m.buckets))
	i, j := 0, 0
	for i < len(ks.buckets) || j < len(m.buckets) {
		switch {
		case i == len(ks.buckets):
			merged = append(merged, m.buckets[j])
			j++
		case j == len(m.buckets):
			merged = append(merged, ks.buckets[i])
			i++
		case ks.buckets[i].interval < m.buckets[j].interval:
			merged = append(merged, ks.buckets[i])
			i++
		case ks.buckets[i].interval > m.buckets[j].interval:
			merged = append(merged, m.buckets[j])
			j++
		default:
			b := ks.buckets[i]
			b.entries = append(b.entries, m.buckets[j].entries...)
			b.size += m.buckets[j].size
			merged = append(merged, b)
			i++
			j++
		}
	}
	ks.buckets = merged
	ks.size += m.Size
	s.total += m.Size
}

// refCell and refTab are the reference tracker's cells, kept in a Go
// map.
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

// refTracker is the statistics tracker package stats shipped before the
// key directory, kept as the reference model the randomized tests pin
// the directory's statistics face against: the window is a ring of Go
// maps (one per finished interval, rebuilt every close, summed key by
// key for S(k, w)), the close returns a map, and cells carry the epoch
// of their last touch instead of living on a per-interval list. It
// shares no code with the directory.
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

// ObserveBatch folds a batch tuple by tuple.
func (t *refTracker) ObserveBatch(ts []tuple.Tuple) {
	for i := range ts {
		t.ObserveKey(ts[i].Key, ts[i].Cost, ts[i].StateSize)
	}
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
func (t *refTracker) EndInterval() map[tuple.Key]Tally {
	t.rollWindow()
	out := make(map[tuple.Key]Tally, len(t.dirty))
	t.harvestDirty(func(k tuple.Key, c *refCell) {
		out[k] = Tally{Key: k, Cost: c.cost, Freq: c.freq, Mem: t.WindowedMem(k)}
	})
	t.closeInterval()
	return out
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
