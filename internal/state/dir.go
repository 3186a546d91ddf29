package state

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/tuple"
)

// Dir is one task's key directory: the one table and the one ring of
// per-interval record lists behind both the task's state store (Store,
// the state face) and its statistics tracker (stats.Tracker, the
// statistics face). A Dir serves one task goroutine and is not
// synchronized. The package comment describes the layout.
type Dir struct {
	window int
	// interval is the interval in progress; closes counts the closes so
	// far (the statistics face's finished intervals, see AdoptKey).
	interval, closes int64
	// total is Σ of the live buckets' sizes, live the keys holding one.
	total int64
	live  int
	// slots is the power-of-two open-addressed key table (linear probing,
	// backward-shift deletion, grown at 3/4 load) over the key record
	// slab; free lists released records, runs released entry runs.
	slots     []slot
	mask      uint64
	n, growAt int
	keys      []keyRec
	free      []int32
	runs      runPool
	// lists[iv mod (w+1)] holds retained interval iv's records, lists[cur]
	// the interval in progress's. future holds buckets injected ahead of
	// the clock, held the buckets the window has passed that wait behind
	// an older front bucket (see Store).
	lists        [][]rec
	cur          int
	future, held []rec
	// base numbers the current list's first record in the running count
	// of records ever appended to a current list (modulo 2³²), the
	// numbering of the slots' cur hints; starts[li] is list li's base
	// when it was current, so a hint also finds a first touch after its
	// close (see hinted).
	base   uint32
	starts []uint32
	// Recycled scratch of the close and of removals.
	tallies []Tally
	sel     []int32
	picks   []pick
	parts   []part
}

// keyRec is one key's record in one cache line (the key is in its slot
// and records): the entry run, run[head:] live, oldest bucket first,
// and the window sum S(k, w). Bucket positions count entries modulo 2³²
// (ent is the run's end), so moving the run moves no record. nrec counts
// the key's records — one per retained interval, a few more while
// transfers arrive — but the one its slot's hint names, which the close
// counts so a first touch need not reach this line; the key lives while
// it has either.
//
// lists, atList and atPos tell a removal where the key's records lie,
// so that it need not read every list. The slot's hint names the key's
// latest first touch (see Dir.hinted), and the close that counts a
// first touch sets its list's bit (list mod 8) in the low byte of lists,
// so a removal reads the lists of the others. A record push appends is named by atList and atPos
// (position + 1; 0 for none) while they name no other live record of the
// key — a key that migrated in usually has one — and otherwise sets its
// list's bit in the high byte, as the close's arrivals from future do.
// With at most 8 lists, a list leaving the window clears both its bits
// on every key it holds a live record of; with more, lists share bits
// and keep them until the key is released, and a removal reads a few
// lists more than it needs. A stale hint or bit costs a read, never a
// record: a removal claims a record only if it names the key and still
// holds what is stripped.
//
// A packed key — one whose n live entries all lack a value and share
// one size — holds no run: head is −n and the entries are only counted,
// each of size (sealed+pend)/n, which is exact as sealed+pend = n·size.
// len(run)−head is then n, so the position arithmetic (front, pop,
// hasState) is the same for both forms. A key packs only from empty,
// and gets its run (unpack) when an Add breaks the form or something
// reads its entries: Store.Entries, or a removal taking its buckets.
type keyRec struct {
	run    []Entry
	ent    uint32
	head   int32
	nrec   uint16
	bits   uint8  // kOpen, kBoxed
	atList uint8  // with atPos, one record push appended
	lists  uint16 // by bit: lists of closed first touches (low byte), of other records (high)
	atPos  uint16
	pend   int64 // the open bucket's size so far
	sealed int64 // the other live buckets' size
	win    int64
}

const (
	kOpen  uint8 = 1 << iota // the newest bucket is the interval in progress's and takes the Adds
	kBoxed                   // an entry since the run was claimed carried a Value: zero dead entries
)

// listBit is list li's bit in the low byte of a key record's lists; the
// high byte's is listBit(li) << 8.
func listBit(li int) uint16 { return 1 << (li & 7) }

// hasState reports whether the key holds a live bucket (none is empty).
func (kr *keyRec) hasState() bool { return int(kr.head) < len(kr.run) }

// packed reports whether the key's live entries are counted, not stored.
func (kr *keyRec) packed() bool { return kr.head < 0 }

// packs reports whether a value-less entry of size s keeps the key, which
// holds no run, packed: its n live entries (none, or a packed key's) are
// all of size s. With |s| < 2³² and n < 2³¹, n·s cannot overflow, so the
// test is exact; other sizes never pack.
func (kr *keyRec) packs(s int64) bool {
	return s > -1<<32 && s < 1<<32 && kr.head > math.MinInt32 && -int64(kr.head)*s == kr.sealed+kr.pend
}

// unpack gives a packed key its run: n value-less entries of its size.
func (d *Dir) unpack(kr *keyRec) {
	n := int(-kr.head)
	run, e := d.runs.get(n)[:n], Entry{Size: (kr.sealed + kr.pend) / int64(n)}
	for i := range run {
		run[i] = e
	}
	kr.run, kr.head = run, 0
}

// rec is one (key, interval) record: a bucket's place in the key's run
// (start, n entries, size; the open bucket's are filled in at the
// close) and/or the interval's statistics — fStat while it is in
// progress, fTracked once it counts in the key's window sum. A record
// that is neither is dead (ref 0).
type rec struct {
	ref   int32 // key record index + 1; 0 when dead
	n     int32
	start uint32
	flags uint8
	key   tuple.Key
	iv    int64
	size  int64
	cost  int64
	freq  int64
	mem   int64
}

const (
	fBucket uint8 = 1 << iota
	fOpen
	fStat
	fTracked
	fCounted // counted in its key's nrec

	bucketFlags = fBucket | fOpen
	statFlags   = fStat | fTracked
)

// Tally is one key's c(k), g(k) and S(k, w) for a closed interval; the
// statistics face sorts a close's tallies into its run.
type Tally struct {
	Key             tuple.Key
	Cost, Freq, Mem int64
}

// slot is one cell of the key table: ref is the key's record index plus
// one, zero for an empty cell. cur numbers the key's record for the
// interval in progress (see Dir.base), a hint valid when it falls in the
// current list on a record naming the key: an old hint costs no read.
type slot struct {
	key tuple.Key
	ref int32
	cur uint32
}

// pick is one bucket claimed by a removal: rel is its start relative to
// the key's run, i the removed key's index.
type pick struct {
	i   int32
	rel uint32
	r   rec
}

// part is one bucket of a merge: own entries (a), then incoming (b).
type part struct {
	iv   int64
	size int64
	a, b []Entry
}

const (
	tabMinSize = 64
	// Runs come in power-of-two capacities from 1<<minRunClass entries
	// up; those of up to 1<<maxPooledClass are recycled through the pool,
	// larger ones (a hot key's) are left to the garbage collector rather
	// than kept for a cold key that would never fill them.
	minRunClass    = 2
	maxPooledClass = 6
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

// NewDir creates a directory with a retention window of w intervals
// (w < 1 clamps to 1), its clock at interval: a task that joins a
// running stage takes its siblings' clock, so its buckets expire — and
// the ones it hands back are stamped — on theirs.
func NewDir(w int, interval int64) *Dir {
	if w < 1 {
		w = 1
	}
	d := &Dir{window: w, interval: interval, lists: make([][]rec, w+1), starts: make([]uint32, w+1)}
	d.cur = d.listOf(interval)
	return d
}

// Store returns the directory's state face.
func (d *Dir) Store() *Store { return (*Store)(d) }

// listOf returns the ring position of interval iv's list (a decoded
// transfer may carry any interval, including a negative one).
func (d *Dir) listOf(iv int64) int {
	n := int64(len(d.lists))
	return int((iv%n + n) % n)
}

// keyHash is splitmix64, the mixing the hash ring uses: fast and
// well-distributed over small-integer keys.
func keyHash(k tuple.Key) uint64 {
	x := uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// find returns k's record index, or -1.
func (d *Dir) find(k tuple.Key) int32 {
	_, idx := d.lookup(k)
	return idx
}

// lookup returns k's slot and record index, or record index -1.
func (d *Dir) lookup(k tuple.Key) (uint64, int32) {
	if d.n == 0 {
		return 0, -1
	}
	for i := keyHash(k) & d.mask; ; i = (i + 1) & d.mask {
		sl := &d.slots[i]
		if sl.ref == 0 {
			return 0, -1
		}
		if sl.key == k {
			return i, sl.ref - 1
		}
	}
}

// hinted returns the list holding the record a slot's hint h numbers and
// its position there, or list −1 (also when a removal has trimmed the
// list's end since). A closed list's first touches are numbered from its
// start up to the next list's; the current list's run on to its end.
func (d *Dir) hinted(h uint32) (int, int) {
	if p := h - d.base; p < uint32(len(d.lists[d.cur])) {
		return d.cur, int(p)
	}
	for li, st := range d.starts {
		next := d.starts[(li+1)%len(d.starts)]
		if p := h - st; li != d.cur && p < next-st {
			if int(p) >= len(d.lists[li]) {
				break // a trimmed end
			}
			return li, int(p)
		}
	}
	return -1, 0
}

// acquire returns k's slot and record index, claiming a key record
// (recycled when one is free) and the slot if the key has none. The
// caller gives a new key its first record.
func (d *Dir) acquire(k tuple.Key) (uint64, int32) {
	if d.n >= d.growAt {
		d.grow()
	}
	i := keyHash(k) & d.mask
	for ; d.slots[i].ref != 0; i = (i + 1) & d.mask {
		if d.slots[i].key == k {
			return i, d.slots[i].ref - 1
		}
	}
	var idx int32
	if n := len(d.free); n > 0 {
		idx = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		idx = int32(len(d.keys))
		d.keys = append(d.keys, keyRec{})
	}
	d.slots[i] = slot{key: k, ref: idx + 1, cur: d.base - 1}
	d.n++
	return i, idx
}

// grow creates the key table or doubles it, rehashing the slots.
func (d *Dir) grow() {
	old := d.slots
	size := tabMinSize
	if len(old) > 0 {
		size = 2 * len(old)
	}
	d.slots = make([]slot, size)
	d.mask = uint64(size - 1)
	d.growAt = size * 3 / 4
	for _, sl := range old {
		if sl.ref == 0 {
			continue
		}
		i := keyHash(sl.key) & d.mask
		for d.slots[i].ref != 0 {
			i = (i + 1) & d.mask
		}
		d.slots[i] = sl
	}
}

// drop retires one of key k's records and releases the key with its
// last.
func (d *Dir) drop(k tuple.Key, idx int32) {
	if d.keys[idx].nrec--; d.keys[idx].nrec == 0 {
		d.release(k, idx)
	}
}

// release returns key idx, which no counted record names any more, to
// the free list, its run (which holds no value) to the pool, and removes
// its key from the table, shifting displaced successors back into the
// hole — unless its slot's hint names a live record of the interval in
// progress, which keeps the key until the close counts it.
func (d *Dir) release(k tuple.Key, idx int32) {
	kr := &d.keys[idx]
	i := keyHash(k) & d.mask
	for d.slots[i].ref != idx+1 {
		i = (i + 1) & d.mask
	}
	if c := d.lists[d.cur]; uint(d.slots[i].cur-d.base) < uint(len(c)) && c[d.slots[i].cur-d.base].ref == idx+1 {
		return
	}
	for j := i; ; {
		j = (j + 1) & d.mask
		if d.slots[j].ref == 0 {
			break
		}
		h := keyHash(d.slots[j].key) & d.mask
		if (j-h)&d.mask >= (j-i)&d.mask {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = slot{}
	d.n--
	if kr.run != nil {
		d.runs.put(kr.run)
	}
	*kr = keyRec{}
	d.free = append(d.free, idx)
}

// push appends r to list li, counting it on its key, and names it in
// the key's atList and atPos if they name no live record, else sets the
// list's bit in the key's high byte.
func (d *Dir) push(li int, r rec) {
	r.flags |= fCounted
	kr := &d.keys[r.ref-1]
	kr.nrec++
	if n := len(d.lists[li]); n < 1<<16-1 && li < 1<<8 && d.pushed(kr, r.ref) == nil {
		kr.atList, kr.atPos = uint8(li), uint16(n+1)
	} else {
		kr.lists |= listBit(li) << 8
	}
	d.lists[li] = append(d.lists[li], r)
}

// pushed returns the live record of key ref (kr) that its atList and
// atPos name, or nil.
func (d *Dir) pushed(kr *keyRec, ref int32) *rec {
	if kr.atPos == 0 {
		return nil
	}
	if l := d.lists[kr.atList]; int(kr.atPos) <= len(l) && l[kr.atPos-1].ref == ref {
		return &l[kr.atPos-1]
	}
	return nil
}

// curRec returns the record for the interval in progress of key k, in
// slot si, creating it on the key's first touch of the interval. The
// pointer is valid until the current list next grows.
func (d *Dir) curRec(k tuple.Key, si uint64) *rec {
	sl, c := &d.slots[si], d.lists[d.cur]
	if p := uint(sl.cur - d.base); p < uint(len(c)) && c[p].ref == sl.ref {
		return &c[p]
	}
	sl.cur = d.base + uint32(len(c))
	d.lists[d.cur] = append(c, rec{ref: sl.ref, key: k, iv: d.interval})
	return &d.lists[d.cur][len(c)]
}

// bucketRec returns a record of key k (in slot si) for the interval in
// progress that holds no bucket yet: the key's current record, or a new
// one beside it.
func (d *Dir) bucketRec(k tuple.Key, si uint64) *rec {
	if r := d.curRec(k, si); r.flags&fBucket == 0 {
		return r
	}
	d.push(d.cur, rec{ref: d.slots[si].ref, key: k, iv: d.interval})
	return &d.lists[d.cur][len(d.lists[d.cur])-1]
}

// open starts the bucket for the interval in progress of key k, in slot
// si, at the end of its run.
func (d *Dir) open(k tuple.Key, si uint64, idx int32) {
	kr := &d.keys[idx]
	if !kr.hasState() {
		d.live++
	}
	kr.bits |= kOpen
	r := d.bucketRec(k, si)
	r.flags |= bucketFlags
	r.start = kr.ent
}

// reserve makes room for n more entries at the end of kr's run, which
// has too little. When at least a quarter of the run has expired and
// the rest fits, the live entries slide down in place — a slide moves
// at most three entries for each one the space it frees will take, and
// keeps a steady key's capacity within 4/3 of its live peak. Otherwise
// they move to a run of (at least) the next capacity class and the old
// run returns to the pool.
func (d *Dir) reserve(kr *keyRec, n int) {
	old, live := kr.run, kr.run[kr.head:]
	if len(live)+n <= cap(old) && 4*int(kr.head) >= len(old) {
		kr.run, kr.head = old[:copy(old, live)], 0
		if kr.bits&kBoxed != 0 {
			clear(old[len(live):])
		}
		return
	}
	to := d.runs.get(max(len(live)+n, cap(old)+1))
	kr.run, kr.head = to[:copy(to[:len(live)], live)], 0
	if kr.bits&kBoxed != 0 {
		clear(old)
	}
	d.runs.put(old)
}

// front reports whether r is the key's oldest live bucket (packed or not).
func (kr *keyRec) front(r *rec) bool {
	return r.start == kr.ent-uint32(len(kr.run)-int(kr.head))
}

// pop expires the key's front bucket r, zeroing its entries if they may
// hold values (a packed key's head counts up towards 0); a key left
// without a live bucket gives its run back.
func (d *Dir) pop(kr *keyRec, r *rec) {
	end := int(kr.head) + int(r.n)
	if kr.bits&kBoxed != 0 {
		clear(kr.run[kr.head:end])
	}
	kr.head = int32(end)
	kr.sealed -= r.size
	d.total -= r.size
	if end == len(kr.run) {
		d.live--
		d.runs.put(kr.run)
		kr.run, kr.head, kr.bits = nil, 0, kr.bits&^kBoxed
	}
}

// Close ends the interval in progress for both faces, visiting two
// lists. The list leaving the window (interval i−w as i closes) leaves
// its keys' window sums, its buckets expire and keys nothing else names
// are released; the current list seals its open buckets and adds to its
// keys' sums, yielding one tally per touched key — unsorted, in a buffer
// the next close reuses. The leaving list's storage then serves the new
// interval, joined by the buckets injected for it. A steady close
// allocates nothing.
func (d *Dir) Close() []Tally {
	leave := d.listOf(d.interval + 1)
	l := d.lists[leave]
	var gone uint16 // the leaving list's bits, unless lists share bits
	if len(d.lists) <= 8 {
		gone = listBit(leave) | listBit(leave)<<8
	}
	for i := range l {
		r := &l[i]
		if r.ref == 0 {
			continue
		}
		kr := &d.keys[r.ref-1]
		kr.lists &^= gone
		if r.flags&fTracked != 0 {
			kr.win -= r.mem
		}
		if r.flags&fBucket != 0 {
			if !kr.front(r) {
				// An older bucket (one injected ahead of the clock) still
				// leads the run: this one waits behind it.
				d.held = append(d.held, rec{ref: r.ref, n: r.n, start: r.start, flags: fBucket | fCounted, key: r.key, iv: r.iv, size: r.size})
				continue
			}
			d.pop(kr, r)
		}
		d.drop(r.key, r.ref-1)
	}
	c, curBit := d.lists[d.cur], listBit(d.cur)
	tallies := d.tallies[:0]
	for i := range c {
		r := &c[i]
		if r.ref == 0 {
			continue
		}
		kr := &d.keys[r.ref-1]
		if r.flags&fCounted == 0 {
			// A first touch: the slot's hint names it.
			r.flags |= fCounted
			kr.nrec++
			kr.lists |= curBit
		}
		if r.flags&fOpen != 0 {
			r.n, r.size = int32(kr.ent-r.start), kr.pend
			kr.sealed += kr.pend
			kr.pend, kr.bits = 0, kr.bits&^kOpen
			r.flags &^= fOpen
		}
		if r.flags&fStat != 0 {
			kr.win += r.mem
			r.flags = r.flags&^fStat | fTracked
			tallies = append(tallies, Tally{Key: r.key, Cost: r.cost, Freq: r.freq, Mem: kr.win})
		}
	}
	d.tallies = tallies
	d.interval++
	d.closes++
	d.cur, d.base = leave, d.base+uint32(len(c))
	d.starts[leave] = d.base
	l = l[:0]
	if len(d.future) > 0 {
		keep := d.future[:0]
		for _, r := range d.future {
			if r.iv > d.interval {
				keep = append(keep, r)
				continue
			}
			kr := &d.keys[r.ref-1]
			if r.start+uint32(r.n) == kr.ent {
				// The key's newest bucket: it takes the interval's Adds.
				r.flags |= fOpen
				kr.bits, kr.pend = kr.bits|kOpen, r.size
				kr.sealed -= r.size
			}
			kr.lists |= listBit(leave) << 8
			l = append(l, r)
		}
		d.future = keep
	}
	d.lists[leave] = l
	d.expireHeld()
	return tallies
}

// expireHeld expires every held bucket the window has passed that now
// leads its key's run, until none does.
func (d *Dir) expireHeld() {
	oldest := d.interval - int64(d.window)
	for again := len(d.held) > 0; again; {
		again = false
		keep := d.held[:0]
		for _, r := range d.held {
			if kr := &d.keys[r.ref-1]; r.iv < oldest && kr.front(&r) {
				d.pop(kr, &r)
				d.drop(r.key, r.ref-1)
				again = true
				continue
			}
			keep = append(keep, r)
		}
		d.held = keep
	}
}

// stat returns k's statistics record for the interval in progress.
func (d *Dir) stat(k tuple.Key) *rec {
	si, _ := d.acquire(k)
	r := d.curRec(k, si)
	r.flags |= fStat
	return r
}

// ObserveBatch charges every tuple's cost and state size to its key in
// the interval in progress — the statistics face's per-tuple path: the
// key's slot, then the record its hint names, which the operator's Add
// has usually just touched.
func (d *Dir) ObserveBatch(ts []tuple.Tuple) {
	slots, mask, c, base := d.slots, d.mask, d.lists[d.cur], d.base
	for i := range ts {
		// The probe and the hint check inline; a miss takes stat.
		var r *rec
		k := ts[i].Key
		for j := keyHash(k) & mask; len(slots) > 0; j = (j + 1) & mask {
			sl := &slots[j]
			if sl.ref == 0 {
				break
			}
			if sl.key == k {
				if p := uint(sl.cur - base); p < uint(len(c)) && c[p].ref == sl.ref {
					r = &c[p]
					r.flags |= fStat
				}
				break
			}
		}
		if r == nil {
			r = d.stat(k)
			slots, mask, c = d.slots, d.mask, d.lists[d.cur]
		}
		r.cost += ts[i].Cost
		r.freq++
		r.mem += ts[i].StateSize
	}
}

// AbsorbKey folds an already-aggregated (cost, freq, mem) contribution
// into k's record for the interval in progress.
func (d *Dir) AbsorbKey(k tuple.Key, cost, freq, mem int64) {
	if cost == 0 && freq == 0 && mem == 0 {
		return
	}
	r := d.stat(k)
	r.cost += cost
	r.freq += freq
	r.mem += mem
}

// AdoptKey seeds S(k, w) for a key that just migrated in with a record
// in the last finished interval — or, before the directory's first
// close, in the interval in progress.
func (d *Dir) AdoptKey(k tuple.Key, mem int64) {
	if d.closes == 0 {
		d.stat(k).mem += mem
		return
	}
	_, idx := d.acquire(k)
	kr, li := &d.keys[idx], d.listOf(d.interval-1)
	kr.win += mem
	if r := d.pushed(kr, idx+1); r != nil && int(kr.atList) == li {
		// The bucket that arrived with the key, in that interval's list,
		// carries the sum too: one record to find.
		r.flags |= fTracked
		r.mem += mem
		return
	}
	d.push(li, rec{ref: idx + 1, flags: fTracked, key: k, iv: d.interval - 1, mem: mem})
}

// Keys returns, ascending, every key with statistics: touched in the
// interval in progress or recorded in a finished interval of the window.
func (d *Dir) Keys() []tuple.Key {
	var out []tuple.Key
	for _, l := range d.lists {
		for i := range l {
			if l[i].ref != 0 && l[i].flags&(fStat|fTracked) != 0 {
				out = append(out, l[i].key)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Move removes distinct keys from both faces — each key's buckets,
// window sum and statistics — reading only the records the keys' hints
// and list bits lead to, and hands fn each key's state and window sum,
// in keys order.
func (d *Dir) Move(keys []tuple.Key, fn func(i int, m Migrated, mem int64)) {
	d.remove(keys, bucketFlags|statFlags, fn)
}

// remove claims keys' buckets and/or statistics (strip: bucketFlags,
// statFlags), then settles each key: its buckets leave as a Migrated in
// run order, its window sum as mem, and a key nothing names any more is
// released. It reads each key's latest first touch through its slot's
// hint and the record its atList and atPos name, then once each list
// some key's bits name, and the future and held lists when they hold
// any. A claimed record left with nothing is marked dead where it lies:
// a close skips it, and the list drops it when it leaves the window, or
// now if it ends the list. Only future and held, which no close
// empties, are compacted.
func (d *Dir) remove(keys []tuple.Key, strip uint8, fn func(i int, m Migrated, mem int64)) {
	if len(d.sel) < len(d.keys) {
		d.sel = make([]int32, len(d.keys)+len(d.keys)/4)
	}
	sel, picks := d.sel, d.picks[:0]
	// scan names the lists to read whole, trim those whose dead end to
	// drop.
	var scan, trim uint16
	claimed := false
	for i, k := range keys {
		si, idx := d.lookup(k)
		if idx < 0 {
			continue
		}
		sel[idx], claimed = int32(i+1), true
		kr := &d.keys[idx]
		if strip&fBucket != 0 && kr.packed() {
			d.unpack(kr) // its buckets leave as entries
		}
		lists := kr.lists
		if li, p := d.hinted(d.slots[si].cur); li >= 0 && d.lists[li][p].ref == idx+1 {
			// The key's only first touch in that list, which needs no
			// reading unless it shares its bit.
			picks = d.claim(&d.lists[li][p], strip, picks)
			if len(d.lists) <= 8 {
				lists &^= listBit(li)
			}
			trim |= listBit(li)
		}
		if r := d.pushed(kr, idx+1); r != nil {
			picks = d.claim(r, strip, picks)
			trim |= listBit(int(kr.atList))
		}
		scan |= lists | lists>>8
	}
	scan &= 0xff
	for li, l := range d.lists {
		if scan&listBit(li) == 0 {
			continue
		}
		for j := range l {
			if r := &l[j]; r.ref != 0 && sel[r.ref-1] != 0 {
				picks = d.claim(r, strip, picks)
			}
		}
	}
	// Dead records at a list's end go (positions before them stay put,
	// as hints number them), so migrations between closes — a key moved
	// away and back, say — do not lengthen a list.
	for li, l := range d.lists {
		if (scan|trim)&listBit(li) != 0 {
			n := len(l)
			for n > 0 && l[n-1].ref == 0 {
				n--
			}
			d.lists[li] = l[:n]
		}
	}
	for _, l := range []*[]rec{&d.future, &d.held} {
		if !claimed || len(*l) == 0 {
			continue
		}
		for j := range *l {
			if r := &(*l)[j]; r.ref != 0 && sel[r.ref-1] != 0 {
				picks = d.claim(r, strip, picks)
			}
		}
		*l = slices.DeleteFunc(*l, func(r rec) bool { return r.ref == 0 })
	}
	slices.SortFunc(picks, func(a, b pick) int {
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		return cmp.Compare(a.rel, b.rel)
	})
	d.picks = picks
	for i, k := range keys {
		idx := d.find(k)
		if idx < 0 {
			if fn != nil {
				fn(i, Migrated{Key: k}, 0)
			}
			continue
		}
		sel[idx] = 0
		kr := &d.keys[idx]
		m, mem := Migrated{Key: k}, int64(0)
		if strip&fBucket != 0 && kr.hasState() {
			n := 0
			for n < len(picks) && picks[n].i == int32(i) {
				n++
			}
			m.buckets = make([]bucket, n)
			for j, p := range picks[:n] {
				cnt, size := int(p.r.n), p.r.size
				if p.r.flags&fOpen != 0 {
					cnt, size = int(kr.ent-p.r.start), kr.pend
				}
				a := int(p.rel)
				m.buckets[j] = bucket{interval: p.r.iv, entries: kr.run[a : a+cnt : a+cnt], size: size}
			}
			picks = picks[n:]
			m.Size = kr.sealed + kr.pend
			d.total -= m.Size
			d.live--
			// The entries leave with the migrated state.
			kr.run, kr.head, kr.sealed, kr.pend, kr.bits = nil, 0, 0, 0, 0
		}
		if strip&fStat != 0 {
			mem, kr.win = kr.win, 0
		}
		if kr.nrec == 0 {
			d.release(k, idx)
		}
		if fn != nil {
			fn(i, m, mem)
		}
	}
}

// claim strips record r of a key being removed (sel names it) of strip,
// noting a claimed bucket in picks, which it returns; a record left with
// nothing is dead, and its key loses it from nrec. A record already
// stripped is left as it is, so reading one twice claims it once.
func (d *Dir) claim(r *rec, strip uint8, picks []pick) []pick {
	if r.flags&strip == 0 {
		return picks
	}
	kr := &d.keys[r.ref-1]
	if r.flags&strip&fBucket != 0 {
		picks = append(picks, pick{i: d.sel[r.ref-1] - 1, rel: r.start - (kr.ent - uint32(len(kr.run))), r: *r})
		r.n, r.start, r.size = 0, 0, 0
	}
	if r.flags&strip&statFlags != 0 {
		r.cost, r.freq, r.mem = 0, 0, 0
	}
	if r.flags &^= strip; r.flags&^fCounted == 0 {
		if r.ref = 0; r.flags != 0 {
			kr.nrec-- // a key left with none is released below
		}
	}
	return picks
}

// inject merges a migrated key state into the directory; see
// Store.Inject.
func (d *Dir) inject(m Migrated) {
	in := m.buckets
	if len(in) == 0 {
		return
	}
	var own []bucket
	if idx := d.find(m.Key); idx >= 0 && d.keys[idx].hasState() {
		d.remove([]tuple.Key{m.Key}, bucketFlags, func(_ int, o Migrated, _ int64) { own = o.buckets })
	}
	// Merge the key's own buckets and the incoming ones by interval,
	// walking both lists as ascending.
	parts := d.parts[:0]
	for i, j := 0, 0; i < len(own) || j < len(in); {
		switch {
		case j == len(in) || (i < len(own) && own[i].interval < in[j].interval):
			parts = append(parts, part{iv: own[i].interval, size: own[i].size, a: own[i].entries})
			i++
		case i == len(own) || own[i].interval > in[j].interval:
			parts = append(parts, part{iv: in[j].interval, size: in[j].size, b: in[j].entries})
			j++
		default:
			parts = append(parts, part{iv: own[i].interval, size: own[i].size + in[j].size, a: own[i].entries, b: in[j].entries})
			i++
			j++
		}
	}
	// Buckets at the front that the window has already passed expire on
	// arrival.
	oldest := d.interval - int64(d.window)
	first, n := 0, 0
	for first < len(parts) && parts[first].iv < oldest {
		first++
	}
	for _, p := range parts[first:] {
		n += len(p.a) + len(p.b)
	}
	if n > 0 {
		d.install(m.Key, parts[first:], n)
	}
	clear(parts)
	d.parts = parts[:0]
}

// install gives key k, which holds no live bucket, the buckets parts
// (n entries in all) in a fresh run, each on a record in the list of
// its interval: the current list (the newest bucket, if current, stays
// open), future, or held for a bucket the window has passed.
func (d *Dir) install(k tuple.Key, parts []part, n int) {
	si, idx := d.acquire(k)
	kr := &d.keys[idx]
	kr.run, kr.head = d.runs.get(n), 0
	kr.bits |= kBoxed // the transfer's entries may carry values
	d.live++
	oldest := d.interval - int64(d.window)
	for j, p := range parts {
		if len(p.a)+len(p.b) == 0 {
			continue // a hostile payload's bucket without entries holds no run position
		}
		r := rec{ref: idx + 1, flags: fBucket | fCounted, start: kr.ent, n: int32(len(p.a) + len(p.b)), key: k, iv: p.iv, size: p.size}
		kr.run = append(append(kr.run, p.a...), p.b...)
		kr.ent += uint32(r.n)
		d.total += p.size
		switch {
		case p.iv == d.interval:
			c := d.bucketRec(k, si)
			c.flags |= fBucket
			c.start, c.n, c.size = r.start, r.n, r.size
			if j == len(parts)-1 {
				c.flags |= fOpen
				kr.bits, kr.pend = kr.bits|kOpen, p.size
				continue
			}
		case p.iv > d.interval:
			d.future = append(d.future, r)
			kr.nrec++
		case p.iv >= oldest:
			d.push(d.listOf(p.iv), r)
		default:
			d.held = append(d.held, r)
			kr.nrec++
		}
		kr.sealed += p.size
	}
}
