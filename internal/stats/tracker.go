package stats

import (
	"slices"

	"repro/internal/tuple"
)

// Tracker accumulates per-key measurements inside the current interval
// and maintains a ring of the last w intervals so S(k, w) can be
// reported. One Tracker serves one operator; the engine's tasks feed it
// and the controller snapshots it at interval boundaries (step 1 of the
// Fig. 5 workflow).
//
// Tracker is not internally synchronized: in the engine each task owns
// a private Tracker and the controller merges them, mirroring the
// paper's per-instance load-reporting module.
type Tracker struct {
	window int
	// cur accumulates the in-progress interval in an open-addressed
	// table of value cells: one probe-and-update per observation (a Go
	// map would cost a hashed access plus a hashed assign), no per-key
	// cell allocation. Cells persist across intervals; a close visits
	// only the cells chained on the dirty list below and clears their
	// dirty flag, so the table is never scanned or reset.
	cur cellTab
	// dirty chains each key touched this interval, once, at first-touch
	// time — the close harvests exactly this list instead of scanning
	// the table's capacity, so interval-close cost is O(touched keys).
	// DropKey unchains a key it deletes mid-interval, so every chained
	// key has a live dirty cell and appears exactly once.
	dirty []tuple.Key
	// ring[j] holds one finished interval's per-key state sizes as a
	// slab of (key, mem) records; the ring covers the last `window`
	// finished intervals. Each cell carries the running sum of its
	// records (cell.win), so S(k, w) is one probe: a close adds the
	// interval's record to the sum and subtracts the evicted slab's. The
	// slabs are recycled, so rolling the window allocates nothing.
	ring [][]memRec
	// next is the ring index the next finished interval lands in.
	next int
	// finished counts completed intervals (for Interval stamping).
	finished int64
	// run is the recycled output buffer every close harvests the
	// interval's KeyStats into; ord and ordSpare are the two buffers the
	// close sorts the touched keys between on the way (see sortCostKeys).
	run      []KeyStat
	ord      []costKey
	ordSpare []costKey
}

// cell is one key's interval accumulator. dirty marks a cell touched in
// the interval in progress (its key is on the tracker's dirty list); a
// clean cell's cost/freq/mem belong to an already harvested interval
// and are overwritten by its next touch. win is the key's windowed
// memory over the finished intervals in the ring, and inc the table
// incarnation the cell was created under (see memRec). The cell is 48
// bytes: a probe and its update stay within one cache line.
type cell struct {
	key   tuple.Key
	cost  int64
	freq  int64
	mem   int64
	win   int64
	inc   uint32
	live  bool
	dirty bool
}

// memRec is one key's state size in one finished interval, as held in
// the window ring. inc is the incarnation of the cell it was added to:
// evicting the record subtracts it from the key's window sum only if
// the key's present cell is that same cell — a key dropped (migrated
// away) and adopted or observed again starts a fresh sum, and the
// records of its previous life must not be subtracted from it.
type memRec struct {
	key tuple.Key
	mem int64
	inc uint32
}

// cellTab is a power-of-two open-addressed table with linear probing
// and backward-shift deletion. It exists because the tracker update is
// on the engine's per-tuple path: upsert is a splitmix hash, a masked
// index and (almost always) one cache line touched.
type cellTab struct {
	cells  []cell
	mask   uint64
	n      int
	growAt int
	// inc stamps new cells and is bumped by every deletion, so a cell
	// created after a key was deleted never shares the deleted cell's
	// incarnation.
	inc uint32
}

const cellTabMinSize = 64

func (t *cellTab) init(size int) {
	t.cells = make([]cell, size)
	t.mask = uint64(size - 1)
	t.n = 0
	t.growAt = size * 3 / 4
}

// upsert returns the live cell for k, inserting a zero cell if absent.
// The pointer is valid until the next upsert (which may grow the
// table).
func (t *cellTab) upsert(k tuple.Key) *cell {
	if t.cells == nil {
		t.init(cellTabMinSize)
	} else if t.n >= t.growAt {
		t.grow()
	}
	i := cellHash(k) & t.mask
	for {
		c := &t.cells[i]
		if !c.live {
			c.key = k
			c.live = true
			c.inc = t.inc
			t.n++
			return c
		}
		if c.key == k {
			return c
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns k's live cell, or nil.
func (t *cellTab) lookup(k tuple.Key) *cell {
	if i := t.find(k); i >= 0 {
		return &t.cells[i]
	}
	return nil
}

// find returns the index of k's live cell, or -1. The index is valid
// until the next upsert or del.
func (t *cellTab) find(k tuple.Key) int {
	if t.n == 0 {
		return -1
	}
	for i := cellHash(k) & t.mask; ; i = (i + 1) & t.mask {
		c := &t.cells[i]
		if !c.live {
			return -1
		}
		if c.key == k {
			return int(i)
		}
	}
}

func (t *cellTab) grow() {
	old := t.cells
	t.init(len(old) * 2)
	for i := range old {
		if old[i].live {
			c := t.upsert(old[i].key)
			*c = old[i]
		}
	}
}

// reset clears every cell, keeping capacity.
func (t *cellTab) reset() {
	for i := range t.cells {
		t.cells[i] = cell{}
	}
	t.n = 0
}

// del removes k's cell, if present, restoring the probe invariant by
// backward-shifting any displaced successors into the hole.
func (t *cellTab) del(k tuple.Key) {
	if t.n == 0 {
		return
	}
	i := cellHash(k) & t.mask
	for t.cells[i].key != k || !t.cells[i].live {
		if !t.cells[i].live {
			return
		}
		i = (i + 1) & t.mask
	}
	t.n--
	t.inc++
	j := i
	for {
		j = (j + 1) & t.mask
		if !t.cells[j].live {
			break
		}
		h := cellHash(t.cells[j].key) & t.mask
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = cell{}
}

// cellHash is splitmix64, matching the ring's key mixing: fast and
// well-distributed for the small-integer keys synthetic workloads use.
func cellHash(k tuple.Key) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTracker returns a tracker keeping a state window of w intervals.
// w < 1 is clamped to 1 (the paper's minimum, instantaneous state).
func NewTracker(w int) *Tracker {
	if w < 1 {
		w = 1
	}
	return &Tracker{
		window: w,
		ring:   make([][]memRec, w),
	}
}

// Window returns w.
func (t *Tracker) Window() int { return t.window }

// touch returns k's current-interval cell, resetting a clean one and
// chaining the key into the dirty list on its first touch of the
// interval.
func (t *Tracker) touch(k tuple.Key) *cell {
	c := t.cur.upsert(k)
	if !c.dirty {
		c.dirty = true
		c.cost, c.freq, c.mem = 0, 0, 0
		t.dirty = append(t.dirty, k)
	}
	return c
}

// Observe charges one tuple's cost and state to its key in the current
// interval.
func (t *Tracker) Observe(tp tuple.Tuple) {
	t.ObserveKey(tp.Key, tp.Cost, tp.StateSize)
}

// ObserveKey charges cost and state directly, letting workload drivers
// skip tuple construction in tight loops.
func (t *Tracker) ObserveKey(k tuple.Key, cost, state int64) {
	c := t.touch(k)
	c.cost += cost
	c.freq++
	c.mem += state
}

// ObserveBatch folds a whole batch of tuples into the current interval
// with one call, the entry point the engine's task loop uses so tracker
// accounting is amortized across every tuple of a channel message. It
// returns the batch's total cost, already read during the single pass,
// so callers charging processed-cost accounting need no second pass.
func (t *Tracker) ObserveBatch(ts []tuple.Tuple) int64 {
	tab := &t.cur
	if tab.cells == nil {
		tab.init(cellTabMinSize)
	}
	cells, mask := tab.cells, tab.mask
	var total int64
	for i := range ts {
		// Grow on demand, sized by live keys — not by batch length,
		// which over-allocates badly when a huge batch cycles few keys.
		if tab.n >= tab.growAt {
			tab.grow()
			cells, mask = tab.cells, tab.mask
		}
		k := ts[i].Key
		j := cellHash(k) & mask
		for {
			c := &cells[j]
			if c.live {
				if c.key == k {
					if c.dirty {
						c.cost += ts[i].Cost
						c.freq++
						c.mem += ts[i].StateSize
					} else {
						// Clean cell from an already-harvested interval:
						// first touch of this interval resets and chains.
						c.dirty = true
						c.cost = ts[i].Cost
						c.freq = 1
						c.mem = ts[i].StateSize
						t.dirty = append(t.dirty, k)
					}
					break
				}
				j = (j + 1) & mask
				continue
			}
			c.key = k
			c.live = true
			c.inc = tab.inc
			tab.n++
			c.dirty = true
			c.cost = ts[i].Cost
			c.freq = 1
			c.mem = ts[i].StateSize
			t.dirty = append(t.dirty, k)
			break
		}
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
func (t *Tracker) AbsorbKey(k tuple.Key, cost, freq, mem int64) {
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
// Deleting the cell orphans the key's window records: their incarnation
// no longer matches any cell.
func (t *Tracker) DropKey(k tuple.Key) {
	c := t.cur.lookup(k)
	if c == nil {
		return
	}
	if c.dirty {
		// Touched this interval: unchain it, so the close neither
		// reports the dropped cell nor sees the key twice if it is
		// touched again. Drops happen per migrated key, almost always
		// between a close and the next tuple, when the chain is empty.
		i := slices.Index(t.dirty, k)
		t.dirty[i] = t.dirty[len(t.dirty)-1]
		t.dirty = t.dirty[:len(t.dirty)-1]
	}
	t.cur.del(k)
}

// AdoptKey seeds windowed memory for a key that just migrated in, so
// S(k,w) remains continuous across migration. The memory is recorded in
// the most recently finished interval slot (or the current one if none
// has finished yet).
func (t *Tracker) AdoptKey(k tuple.Key, mem int64) {
	if t.finished == 0 {
		t.touch(k).mem += mem
		return
	}
	last := (t.next - 1 + t.window) % t.window
	c := t.cur.upsert(k)
	c.win += mem
	t.ring[last] = append(t.ring[last], memRec{key: k, mem: mem, inc: c.inc})
}

// EndInterval closes the current interval and returns the per-key
// statistics of the finished one as a run sorted by KeyStatLess: cost
// c(k), frequency g(k) and the windowed memory S(k, w) including the
// interval just finished. It rolls the state window — the slab from w
// intervals ago is evicted (the paper's model: state from T_{i-w} is
// erased after T_i completes) and the finished interval's state sizes
// take its place. Only the interval's dirty keys and the evicted slab's
// records are visited, and nothing is allocated once the buffers have
// grown to the working set. The run lives in a buffer the tracker
// recycles: it is the caller's to read and to stamp in place (Dest,
// Hash) until the next close.
func (t *Tracker) EndInterval() []KeyStat {
	t.shiftWindow(t.ring[t.next], -1)
	slab := t.ring[t.next][:0]
	ord := t.ord[:0]
	for _, k := range t.dirty {
		i := t.cur.find(k)
		c := &t.cur.cells[i]
		c.dirty = false
		c.win += c.mem
		slab = append(slab, memRec{key: k, mem: c.mem, inc: c.inc})
		ord = append(ord, newCostKey(c.cost, uint64(k), i))
	}
	t.ring[t.next] = slab
	t.next = (t.next + 1) % t.window
	t.finished++
	// Keys are unique within a tracker, so (cost, key) alone is the
	// KeyStatLess order; the caller's stamp (one Dest per task) cannot
	// change it.
	ord, t.ordSpare = sortCostKeys(ord, t.ordSpare)
	run := t.run[:0]
	for _, o := range ord {
		c := &t.cur.cells[o.cell]
		run = append(run, KeyStat{Key: c.key, Cost: c.cost, Freq: c.freq, Mem: c.win})
	}
	t.ord, t.run = ord, run
	t.dirty = t.dirty[:0]
	return run
}

// shiftWindow adds sign × every record of slab to its key's window sum,
// skipping records whose cell has since been dropped.
func (t *Tracker) shiftWindow(slab []memRec, sign int64) {
	for _, r := range slab {
		if c := t.cur.lookup(r.key); c != nil && c.inc == r.inc {
			c.win += sign * r.mem
		}
	}
}

// TopK returns the n hottest keys of the interval in progress without
// closing it: the nonzero-cost subset of the run EndInterval would
// return right now (same cost/freq, same post-roll windowed memory),
// ordered by SortByCostDesc and cut to n — computed with one bounded
// min-heap over the interval's dirty keys, O(touched · log n) time and
// O(n) allocation. Zero-cost cells are never candidates: a merely
// adopted cell carries no load evidence for the hot-key detector, which
// polls TopK every interval.
func (t *Tracker) TopK(n int) []KeyStat {
	if n <= 0 || len(t.dirty) == 0 {
		return nil
	}
	// colder orders by the inverse of KeyStatLess (Dest is zero for
	// every candidate, matching EndInterval's run), so the heap root is
	// always the weakest current member.
	colder := func(a, b KeyStat) bool {
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		return a.Key > b.Key
	}
	// EndInterval reports Mem post-roll: the slab the close would evict
	// no longer counts, the interval's own state does. Take the slab out
	// of the window sums for the scan and put it back after.
	t.shiftWindow(t.ring[t.next], -1)
	defer t.shiftWindow(t.ring[t.next], +1)
	heap := make([]KeyStat, 0, n)
	for _, k := range t.dirty {
		c := t.cur.lookup(k)
		if c.cost == 0 {
			continue
		}
		ks := KeyStat{Key: k, Cost: c.cost, Freq: c.freq, Mem: c.win + c.mem}
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
			continue
		}
		if !colder(heap[0], ks) {
			continue
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
	}
	if len(heap) == 0 {
		return nil
	}
	SortByCostDesc(heap)
	return heap
}

// WindowedMem returns S(k, w) = Σ_{j=i-w+1..i} s_j(k) over the finished
// intervals currently in the window: one probe, the key's cell carries
// the sum.
func (t *Tracker) WindowedMem(k tuple.Key) int64 {
	if c := t.cur.lookup(k); c != nil {
		return c.win
	}
	return 0
}

// Finished returns the number of completed intervals.
func (t *Tracker) Finished() int64 { return t.finished }

// Keys returns every key with any recorded history in ascending order:
// current-interval observations or a record in a finished slot of the
// window. Clean cells (keys whose last touch was an already-harvested
// interval and whose window has drained) are skipped, so a retired key
// cannot resurrect in scale-in or detector input.
func (t *Tracker) Keys() []tuple.Key {
	out := append([]tuple.Key(nil), t.dirty...)
	for _, slab := range t.ring {
		for _, r := range slab {
			if c := t.cur.lookup(r.key); c != nil && c.inc == r.inc {
				out = append(out, r.key)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
