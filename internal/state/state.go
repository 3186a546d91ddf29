// Package state implements the windowed per-key state store of a
// stateful operator (§II-A): each key accumulates per-interval state
// entries, only the last w intervals are retained (state from T_{i−w}
// is erased once T_i completes), and a key's entire windowed state can
// be extracted and injected elsewhere — the migration primitive whose
// volume is the migration cost M(w, F, F′) of Eq. 2.
//
// # Layout
//
// Keys live in an open-addressed table of (key, slab index) slots. The
// slab holds one keyState per live key: a single entry run — the
// entries of every retained bucket, oldest bucket first, contiguous —
// and a short list of bucket marks that cut the run into its
// per-interval buckets. Adding an entry appends to the run and touches
// nothing else; expiring a bucket advances the run's head past its
// entries (zeroing them if they carry values, so a recycled run never
// pins an operator's values). A run keeps its capacity for as long as
// its key lives; when the key's last bucket expires, the keyState
// returns to a free list and the run to a pool of runs of its capacity,
// for the next key that needs one.
//
// An interval close does not range over the keys. Every bucket opened
// for interval i records its key in a per-interval list (a ring of w+1
// recycled lists, one per retained interval), and EndInterval visits
// exactly the list of the interval leaving the window: O(keys touched
// w+1 intervals ago), no allocation once the table, the lists and the
// pool have reached the working set's size.
//
// Buckets stay in arrival order and expire from the front, as they
// always have: a bucket injected with an interval ahead of the store's
// own clock (a decoded transfer may claim any interval) holds its place
// at the front until the clock passes it, and keeps whatever was
// appended behind it alive until then.
package state

import (
	"fmt"
	"math/bits"

	"repro/internal/tuple"
)

// Entry is one unit of state: an operator-defined value with an
// explicit size in state units (the paper's s_i(k) contribution).
type Entry struct {
	Value any
	Size  int64
}

// mark opens one interval's bucket inside a key's entry run: the
// bucket's entries begin at run[start], and sizeAt is the key's running
// size total when it opened. A bucket ends where the next one begins
// (the newest at the end of the run, at the running total), so adding
// an entry to the newest bucket touches no mark at all.
type mark struct {
	interval int64
	sizeAt   int64
	start    int
}

// keyState is a key's retained window. The live buckets are
// marks[mhead:], in arrival order, and their entries are run[head:],
// bucket after bucket; everything before the heads has expired. A live
// keyState holds at least one mark; last caches the newest one's
// interval and added the running total of entry sizes, so the fields
// Add reads and writes sit together. boxed records that some entry
// since the state was claimed carried a Value: only then do dead
// entries need zeroing.
type keyState struct {
	run   []Entry
	last  int64
	added int64
	head  int
	live  bool
	boxed bool
	key   tuple.Key
	marks []mark
	mhead int
}

// end returns where live bucket i (an index into marks) ends in the run
// and in the running size total.
func (ks *keyState) end(i int) (int, int64) {
	if i+1 < len(ks.marks) {
		return ks.marks[i+1].start, ks.marks[i+1].sizeAt
	}
	return len(ks.run), ks.added
}

// size returns the live buckets' total size.
func (ks *keyState) size() int64 { return ks.added - ks.marks[ks.mhead].sizeAt }

// slot is one cell of the key table: ref is the key's slab index plus
// one, zero for an empty cell.
type slot struct {
	key tuple.Key
	ref int32
}

// pending is a bucket injected for an interval the store's clock has
// not reached yet; it joins the per-interval ring when it does.
type pending struct {
	interval int64
	idx      int32
}

const (
	tabMinSize = 64
	// Runs come in power-of-two capacities from 1<<minRunClass entries
	// up; those of up to 1<<maxPooledClass are recycled through the pool,
	// larger ones (a hot key's) are left to the garbage collector rather
	// than kept for a cold key that would never fill them.
	minRunClass    = 2
	maxPooledClass = 6
	// maxRecycledMarks bounds the mark capacity a released keyState
	// keeps (normal operation needs at most w+1 live marks).
	maxRecycledMarks = 16
)

// runPool recycles entry runs by capacity class: pool[c] holds released
// runs of capacity 1<<c, none of whose entries holds a value.
type runPool [maxPooledClass + 1][][]Entry

// get returns an empty run with room for at least n entries.
func (p *runPool) get(n int) []Entry {
	c := max(bits.Len(uint(n-1)), minRunClass)
	if c <= maxPooledClass {
		if k := len(p[c]); k > 0 {
			run := p[c][k-1]
			p[c][k-1] = nil
			p[c] = p[c][:k-1]
			return run
		}
	}
	return make([]Entry, 0, 1<<c)
}

// put takes back a run that no key uses any more.
func (p *runPool) put(run []Entry) {
	if c := bits.Len(uint(cap(run))) - 1; c >= minRunClass && c <= maxPooledClass {
		p[c] = append(p[c], run[:0])
	}
}

// Store is a single task's windowed state store. It is confined to the
// owning task goroutine; cross-task access happens only through
// Extract/Inject at controller barriers.
type Store struct {
	window   int
	interval int64
	total    int64

	// slots is the power-of-two open-addressed key table (linear
	// probing, backward-shift deletion), grown on demand at 3/4 load.
	slots  []slot
	mask   uint64
	n      int
	growAt int
	// states is the keyState slab; free lists the indices of released
	// states (their mark lists keep their capacity), runs the released
	// entry runs.
	states []keyState
	free   []int32
	runs   runPool
	// opened[i mod (w+1)] lists the slab index of every bucket opened for
	// retained interval i. Entries are hints: an index may since have
	// been released or reused, and visiting a key whose front bucket is
	// still in the window does nothing.
	opened [][]int32
	future []pending
}

// NewStore creates a store with a retention window of w intervals
// (w < 1 clamps to 1), its clock at interval 0.
func NewStore(w int) *Store { return NewStoreAt(w, 0) }

// NewStoreAt is NewStore with the clock already at interval: the store
// of a task that joins a running stage, which must expire its buckets —
// and stamp the ones it later hands back — on its siblings' clock.
func NewStoreAt(w int, interval int64) *Store {
	if w < 1 {
		w = 1
	}
	return &Store{window: w, interval: interval, opened: make([][]int32, w+1)}
}

// Window returns w.
func (s *Store) Window() int { return s.window }

// Interval returns the current interval index.
func (s *Store) Interval() int64 { return s.interval }

// keyHash is splitmix64, the mixing the statistics tracker and the
// hash ring use: fast and well-distributed over small-integer keys.
func keyHash(k tuple.Key) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// find returns k's slab index, or -1.
func (s *Store) find(k tuple.Key) int32 {
	if s.n == 0 {
		return -1
	}
	for i := keyHash(k) & s.mask; ; i = (i + 1) & s.mask {
		sl := s.slots[i]
		if sl.ref == 0 {
			return -1
		}
		if sl.key == k {
			return sl.ref - 1
		}
	}
}

// acquire returns k's slab index, claiming a keyState (recycled when
// one is free) and a table slot if the key holds no state yet; the
// caller opens the new state's first bucket.
func (s *Store) acquire(k tuple.Key) int32 {
	if s.n >= s.growAt {
		s.grow()
	}
	i := keyHash(k) & s.mask
	for ; s.slots[i].ref != 0; i = (i + 1) & s.mask {
		if s.slots[i].key == k {
			return s.slots[i].ref - 1
		}
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		idx = int32(len(s.states))
		s.states = append(s.states, keyState{})
	}
	s.states[idx].key = k
	s.slots[i] = slot{key: k, ref: idx + 1}
	s.n++
	return idx
}

// grow creates the key table or doubles it, rehashing the slots.
func (s *Store) grow() {
	old := s.slots
	size := tabMinSize
	if len(old) > 0 {
		size = 2 * len(old)
	}
	s.slots = make([]slot, size)
	s.mask = uint64(size - 1)
	s.growAt = size * 3 / 4
	for _, sl := range old {
		if sl.ref == 0 {
			continue
		}
		i := keyHash(sl.key) & s.mask
		for s.slots[i].ref != 0 {
			i = (i + 1) & s.mask
		}
		s.slots[i] = sl
	}
}

// release returns key state idx, which holds no live bucket any more
// (and whose run, if it still has one, holds no value), to the free
// list, its run to the pool, and removes its key from the table,
// restoring the probe invariant by shifting displaced successors back
// into the hole.
func (s *Store) release(idx int32) {
	ks := &s.states[idx]
	i := keyHash(ks.key) & s.mask
	for s.slots[i].ref != idx+1 {
		i = (i + 1) & s.mask
	}
	for j := i; ; {
		j = (j + 1) & s.mask
		if s.slots[j].ref == 0 {
			break
		}
		h := keyHash(s.slots[j].key) & s.mask
		if (j-h)&s.mask >= (j-i)&s.mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = slot{}
	s.n--
	s.runs.put(ks.run)
	marks := ks.marks[:0]
	if cap(marks) > maxRecycledMarks {
		marks = nil
	}
	*ks = keyState{marks: marks}
	s.free = append(s.free, idx)
}

// listOf returns the ring position of interval iv's list (a decoded
// transfer may carry any interval, including a negative one).
func (s *Store) listOf(iv int64) int {
	n := int64(len(s.opened))
	return int((iv%n + n) % n)
}

// open starts a bucket for interval iv at the end of key state idx's
// run and records it for the close that will evict it.
func (s *Store) open(idx int32, iv int64) {
	ks := &s.states[idx]
	if len(ks.marks) == cap(ks.marks) && ks.mhead > 0 {
		n := copy(ks.marks, ks.marks[ks.mhead:])
		ks.marks, ks.mhead = ks.marks[:n], 0
	}
	ks.marks = append(ks.marks, mark{interval: iv, sizeAt: ks.added, start: len(ks.run)})
	ks.last, ks.live = iv, true
	oldest := s.interval - int64(s.window)
	switch {
	case iv > s.interval:
		s.future = append(s.future, pending{interval: iv, idx: idx})
	case iv >= oldest:
		li := s.listOf(iv)
		s.opened[li] = append(s.opened[li], idx)
	}
	// A bucket already older than the window needs no record: it goes
	// when the bucket in front of it does.
}

// reserve makes room for n more entries at the end of ks's run, which
// has too little. When at least a quarter of the run has expired and
// the rest fits, the live entries slide down in place — a slide moves
// at most three entries for each one the space it frees will take, and
// keeps a steady key's capacity within 4/3 of its live peak. Otherwise
// they move to a run of (at least) the next capacity class and the old
// run returns to the pool.
func (s *Store) reserve(ks *keyState, n int) {
	old, live := ks.run, ks.run[ks.head:]
	for i := ks.mhead; i < len(ks.marks); i++ {
		ks.marks[i].start -= ks.head
	}
	if len(live)+n <= cap(old) && 4*ks.head >= len(old) {
		ks.run, ks.head = old[:copy(old, live)], 0
		if ks.boxed {
			clear(old[len(live):])
		}
		return
	}
	to := s.runs.get(max(len(live)+n, cap(old)+1))
	ks.run, ks.head = to[:copy(to[:len(live)], live)], 0
	if ks.boxed {
		clear(old)
	}
	s.runs.put(old)
}

// Add appends an entry to key k's current-interval bucket.
func (s *Store) Add(k tuple.Key, e Entry) {
	idx := s.acquire(k)
	ks := &s.states[idx]
	if !ks.live || ks.last != s.interval {
		s.open(idx, s.interval)
	}
	if len(ks.run) == cap(ks.run) {
		s.reserve(ks, 1)
	}
	if e.Value != nil {
		ks.boxed = true
	}
	ks.run = append(ks.run, e)
	ks.added += e.Size
	s.total += e.Size
}

// Entries returns all live entries for key k, oldest first. The result
// is a read-only view into the store, valid until the next call on the
// store: an operator that probes a key's window and then adds to it
// (ops.SelfJoin, ops.Q5Join) must finish reading before it calls Add.
func (s *Store) Entries(k tuple.Key) []Entry {
	idx := s.find(k)
	if idx < 0 {
		return nil
	}
	ks := &s.states[idx]
	return ks.run[ks.head:len(ks.run):len(ks.run)]
}

// Size returns S(k, w): the key's live state size.
func (s *Store) Size(k tuple.Key) int64 {
	idx := s.find(k)
	if idx < 0 {
		return 0
	}
	return s.states[idx].size()
}

// TotalSize returns the store-wide live state volume, Σ_k Size(k).
// Every bucket is evicted by the close that ends its window (or on
// arrival, when injected already expired), so the figure is exact.
func (s *Store) TotalSize() int64 { return s.total }

// KeyCount returns the number of keys holding live state.
func (s *Store) KeyCount() int { return s.n }

// Keys returns every key currently holding live state, in unspecified
// order. The controller uses it to compute hash-delta migrations when
// the instance set changes (scale-out).
func (s *Store) Keys() []tuple.Key {
	out := make([]tuple.Key, 0, s.n)
	for i := range s.states {
		if s.states[i].live {
			out = append(out, s.states[i].key)
		}
	}
	return out
}

// EndInterval advances the clock and evicts every bucket older than the
// retention window, visiting only the keys that opened a bucket in the
// interval that just left it.
func (s *Store) EndInterval() {
	s.interval++
	li := s.listOf(s.interval)
	for _, idx := range s.opened[li] {
		if s.states[idx].live {
			s.prune(idx)
		}
	}
	s.opened[li] = s.opened[li][:0]
	if len(s.future) > 0 {
		keep := s.future[:0]
		for _, p := range s.future {
			if p.interval <= s.interval {
				s.opened[li] = append(s.opened[li], p.idx)
			} else {
				keep = append(keep, p)
			}
		}
		s.future = keep
	}
}

// prune drops key state idx's front buckets while they are older than
// the window and releases the key when none is left. The window is
// anchored at the last *finished* interval (s.interval−1): per §II-A,
// state from T_{i−w} is erased after T_i completes, so during
// in-progress interval s.interval the retained range is
// [s.interval−window, s.interval].
func (s *Store) prune(idx int32) {
	ks := &s.states[idx]
	oldest := s.interval - int64(s.window)
	for ks.mhead < len(ks.marks) && ks.marks[ks.mhead].interval < oldest {
		end, sizeEnd := ks.end(ks.mhead)
		if ks.boxed {
			clear(ks.run[ks.head:end])
		}
		ks.head = end
		s.total -= sizeEnd - ks.marks[ks.mhead].sizeAt
		ks.mhead++
	}
	if ks.mhead == len(ks.marks) {
		s.release(idx)
	}
}

// bucket is one interval's entries for one key in transit.
type bucket struct {
	interval int64
	entries  []Entry
	size     int64
}

// Migrated is a key's extracted windowed state in transit between
// tasks. Size is the transfer volume charged as migration cost.
type Migrated struct {
	Key     tuple.Key
	Size    int64
	buckets []bucket
}

// Extract removes and returns key k's entire windowed state. A key with
// no state returns an empty Migrated (zero cost), matching the paper's
// observation that moving stateless keys is free.
func (s *Store) Extract(k tuple.Key) Migrated {
	idx := s.find(k)
	if idx < 0 {
		return Migrated{Key: k}
	}
	ks := &s.states[idx]
	m := Migrated{Key: k, Size: ks.size(), buckets: make([]bucket, 0, len(ks.marks)-ks.mhead)}
	for i := ks.mhead; i < len(ks.marks); i++ {
		mk := ks.marks[i]
		end, sizeEnd := ks.end(i)
		m.buckets = append(m.buckets, bucket{interval: mk.interval, entries: ks.run[mk.start:end:end], size: sizeEnd - mk.sizeAt})
	}
	s.total -= m.Size
	ks.run = nil // the entries leave with the migrated state
	s.release(idx)
	return m
}

// Inject merges a migrated key state into this store. Intervals are
// preserved so window eviction stays correct: buckets already older
// than the window are evicted on arrival. The destination clock should
// not be behind the source's (controller barriers guarantee this for
// every task but one freshly created by scale-out, see the package
// comment).
func (s *Store) Inject(m Migrated) {
	if len(m.buckets) == 0 {
		return
	}
	idx := s.acquire(m.Key)
	ks := &s.states[idx]
	if !ks.live {
		ks.boxed = true // the transfer's entries may carry values
		for _, b := range m.buckets {
			s.take(idx, b)
		}
		s.prune(idx)
		return
	}
	// Merge the key's own buckets and the incoming ones by interval,
	// walking both lists as ascending, into a fresh run.
	old := *ks
	s.total -= old.size()
	*ks = keyState{key: old.key, boxed: true}
	i, j := old.mhead, 0
	own := func() bucket {
		end, sizeEnd := old.end(i)
		return bucket{interval: old.marks[i].interval, entries: old.run[old.marks[i].start:end], size: sizeEnd - old.marks[i].sizeAt}
	}
	for i < len(old.marks) || j < len(m.buckets) {
		switch {
		case j == len(m.buckets) || (i < len(old.marks) && old.marks[i].interval < m.buckets[j].interval):
			s.take(idx, own())
			i++
		case i == len(old.marks) || old.marks[i].interval > m.buckets[j].interval:
			s.take(idx, m.buckets[j])
			j++
		default:
			s.take(idx, own())
			s.extend(ks, m.buckets[j])
			i++
			j++
		}
	}
	clear(old.run)
	s.runs.put(old.run)
	s.prune(idx)
}

// take appends bucket b to key state idx as its newest bucket.
func (s *Store) take(idx int32, b bucket) {
	s.open(idx, b.interval)
	s.extend(&s.states[idx], b)
}

// extend appends b's entries and size to ks's newest bucket.
func (s *Store) extend(ks *keyState, b bucket) {
	if len(ks.run)+len(b.entries) > cap(ks.run) {
		s.reserve(ks, len(b.entries))
	}
	ks.run = append(ks.run, b.entries...)
	ks.added += b.size
	s.total += b.size
}

// String summarizes the store for debugging.
func (s *Store) String() string {
	return fmt.Sprintf("state.Store{w=%d interval=%d keys=%d size=%d}", s.window, s.interval, s.n, s.total)
}
