// Package state implements the windowed per-key state store of a
// stateful operator (§II-A): each key accumulates per-interval state
// entries, only the last w intervals are retained (state from T_{i−w}
// is erased once T_i completes), and a key's entire windowed state can
// be extracted and injected elsewhere — the migration primitive whose
// volume is the migration cost M(w, F, F′) of Eq. 2.
//
// # Layout
//
// A task keeps one key directory (Dir) with two faces: Store, the
// windowed state, and stats.Tracker, the per-key statistics. Both live
// in the same two structures.
//
// The key table is open-addressed (key, record index) slots over a slab
// of key records. A key record holds the key, its entry run — the
// entries of every retained bucket, oldest bucket first, contiguous —
// its window sum S(k, w) and the running counters of the bucket still
// open. Most keys hold no run: while a key's live entries all lack a
// value and share one size (a counting operator's), the key is packed
// and its record only counts them, so such an Add moves the key's
// counters and touches nothing else. A key gets its run when an entry
// breaks that form or something reads its entries (Store.Entries, a
// migration); from then on adding an entry appends to the run, until
// the run empties. Expiring a bucket advances the run's head past its
// entries (zeroing them if they carry values, so a recycled run never
// pins an operator's values). A key allocates nothing but its run,
// which comes from and returns to a pool of runs by capacity.
//
// Each (key, interval) pair has one record in a ring of w+1
// per-interval lists: that interval's cost, frequency and state size
// for the statistics, and the bucket's position, entry count and size
// for the store. The current interval's list is the statistics'
// touched-key list and the close's harvest input; the list leaving the
// window is, in one visit, the statistics' window subtraction, the
// store's bucket eviction and the release of keys nothing names any
// more. So a close visits exactly two lists — O(keys touched this
// interval and w intervals ago) — and allocates nothing once the
// table, the lists and the pool have reached the working set's size.
// A migration reads only the moved keys' records: a key record notes
// one record's list and position and, by bit, the lists that may hold
// its others (Dir.Move takes every key a task sends at once). A claimed
// record is marked dead where it lies, and its list drops it when it
// leaves the window.
//
// Buckets stay in arrival order and expire from the front, as they
// always have: a bucket injected with an interval ahead of the store's
// own clock (a decoded transfer may claim any interval) holds its place
// at the front until the clock passes it, and keeps whatever was
// appended behind it alive until then.
package state

import (
	"fmt"

	"repro/internal/tuple"
)

// Entry is one unit of state: an operator-defined value with an
// explicit size in state units (the paper's s_i(k) contribution). The
// store keeps a key's value-less entries of one size as a count, and
// makes the Entry values only when they are read or migrated.
type Entry struct {
	Value any
	Size  int64
}

// Store is the state face of a task's key directory. It is confined
// to the owning task goroutine; cross-task access happens only through
// Dir.Move/Inject at controller barriers.
type Store Dir

// Dir returns the directory the store is a face of.
func (s *Store) Dir() *Dir { return (*Dir)(s) }

// Interval returns the current interval index.
func (s *Store) Interval() int64 { return s.interval }

// Add appends an entry to key k's current-interval bucket. An Add to
// the open bucket touches the key's slot and its record; a value-less
// entry of a packed key's size (or to a key with no live entry) is only
// counted, any other one is appended to the key's run, which it then
// gets if it was packed.
func (s *Store) Add(k tuple.Key, e Entry) {
	d := s.Dir()
	si, idx := d.acquire(k)
	kr := &d.keys[idx]
	if kr.bits&kOpen == 0 {
		d.open(k, si, idx)
	}
	if e.Value == nil && kr.run == nil && kr.packs(e.Size) {
		kr.head--
	} else {
		if kr.packed() {
			d.unpack(kr)
		}
		if len(kr.run) == cap(kr.run) {
			d.reserve(kr, 1)
		}
		if e.Value != nil {
			kr.bits |= kBoxed
		}
		kr.run = append(kr.run, e)
	}
	kr.ent++
	kr.pend += e.Size
	d.total += e.Size
}

// Entries returns all live entries for key k, oldest first. The result
// is a read-only view into the store, valid until the next call on the
// store: an operator that probes a key's window and then adds to it
// (ops.SelfJoin, ops.Q5Join) must finish reading before it calls Add.
// A packed key gets its run here, so the view exists only once read.
func (s *Store) Entries(k tuple.Key) []Entry {
	idx := s.Dir().find(k)
	if idx < 0 {
		return nil
	}
	kr := &s.keys[idx]
	if kr.packed() {
		s.Dir().unpack(kr)
	}
	return kr.run[kr.head:len(kr.run):len(kr.run)]
}

// TotalSize returns the store-wide live state volume, Σ_k S(k, w).
// Every bucket is evicted by the close that ends its window (or on
// arrival, when injected already expired), so the figure is exact.
func (s *Store) TotalSize() int64 { return s.total }

// Keys returns every key currently holding live state, in unspecified
// order. The controller uses it to compute hash-delta migrations when
// the instance set changes (scale-out).
func (s *Store) Keys() []tuple.Key {
	out := make([]tuple.Key, 0, s.live)
	for _, sl := range s.slots {
		if sl.ref != 0 && s.keys[sl.ref-1].hasState() {
			out = append(out, sl.key)
		}
	}
	return out
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

// Inject merges a migrated key state into this store. Intervals are
// preserved so window eviction stays correct: buckets already older
// than the window are evicted on arrival. The destination clock should
// not be behind the source's (controller barriers guarantee this for
// every task but one freshly created by scale-out, see the package
// comment).
func (s *Store) Inject(m Migrated) { s.Dir().inject(m) }

// String summarizes the store for debugging.
func (s *Store) String() string {
	return fmt.Sprintf("state.Store{w=%d interval=%d keys=%d size=%d}", s.window, s.interval, s.live, s.total)
}
