// Package route implements the paper's mixed routing strategy (§II,
// Fig. 3): a bounded explicit routing table A layered over a consistent
// hash h, yielding the assignment function
//
//	F(k) = d     if (k, d) ∈ A
//	F(k) = h(k)  otherwise.          (Eq. 1)
//
// The routing table only stores keys whose destination differs from the
// hash default, so its size NA is exactly the number of "exception"
// keys — the quantity the optimization problem (Eq. 3) bounds by Amax.
package route

import (
	"sort"

	"repro/internal/hashring"
	"repro/internal/tuple"
)

// Hasher is the hash half of the assignment function. *hashring.Ring
// satisfies it; tests substitute cheap modular hashers.
type Hasher interface {
	Hash(k tuple.Key) int
	Instances() int
}

// ModHasher is a trivial Hasher (k mod n) used by unit tests and by
// planner micro-benchmarks where ring lookups would dominate.
type ModHasher int

// Hash returns k mod n.
func (m ModHasher) Hash(k tuple.Key) int { return int(uint64(k) % uint64(m)) }

// Instances returns the instance count.
func (m ModHasher) Instances() int { return int(m) }

var _ Hasher = (*hashring.Ring)(nil)

// Table is the explicit routing table A: the set of (key → destination)
// pairs overriding the hash. Table is not safe for concurrent mutation;
// the engine swaps immutable snapshots via Assignment.
type Table struct {
	m map[tuple.Key]int
}

// NewTable returns an empty routing table.
func NewTable() *Table {
	return &Table{m: make(map[tuple.Key]int)}
}

// Put inserts or updates the entry for k.
func (t *Table) Put(k tuple.Key, d int) { t.m[k] = d }

// Delete removes the entry for k if present.
func (t *Table) Delete(k tuple.Key) { delete(t.m, k) }

// Lookup returns the explicit destination for k and whether one exists.
func (t *Table) Lookup(k tuple.Key) (int, bool) {
	d, ok := t.m[k]
	return d, ok
}

// Len returns NA, the number of entries.
func (t *Table) Len() int { return len(t.m) }

// Keys returns the routed keys in ascending order (deterministic for
// tests and for the Mixed algorithm's cleaning phase tie-breaks).
func (t *Table) Keys() []tuple.Key {
	ks := make([]tuple.Key, 0, len(t.m))
	for k := range t.m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := &Table{m: make(map[tuple.Key]int, len(t.m))}
	for k, d := range t.m {
		c.m[k] = d
	}
	return c
}

// Each calls fn for every entry in unspecified order.
func (t *Table) Each(fn func(k tuple.Key, d int)) {
	for k, d := range t.m {
		fn(k, d)
	}
}

// tableIndex is a routing table frozen into an open-addressed array: the
// per-tuple lookup is one multiply and, almost always, one slot — against
// a Go map's hash call, bucket walk and tophash compare. Slots are at
// most a quarter full, so a miss, by far the common case, nearly always
// ends on the first slot it reads — a branch the predictor gets right.
type tableIndex struct {
	slots []indexSlot
	shift uint
}

type indexSlot struct {
	key  tuple.Key
	dest int32
	used bool
}

// slot is Fibonacci hashing: the product's high bits, so keys that
// agree in their low bits (k·2ⁿ) still spread over the array.
func (ix *tableIndex) slot(k tuple.Key) uint64 {
	return (uint64(k) * 0x9e3779b97f4a7c15) >> ix.shift
}

// newTableIndex freezes m — and, when splits is non-nil, the split keys
// with it — into one index. A split key's slot holds ^j, its position j
// in the split set's ascending key order, instead of its destination:
// the feeder's one probe then yields either F(k) or the split it must
// fan out. The split keys go in first, so a table entry for the same
// key sits later in its probe sequence and is never reached.
func newTableIndex(m map[tuple.Key]int, splits *SplitTable) tableIndex {
	var sp []*Split
	if splits != nil {
		sp = splits.splits
	}
	bits := uint(1)
	for 1<<bits < 4*(len(m)+len(sp)) {
		bits++
	}
	ix := tableIndex{slots: make([]indexSlot, 1<<bits), shift: 64 - bits}
	for j, s := range sp {
		ix.put(s.Key, ^j)
	}
	for k, d := range m {
		ix.put(k, d)
	}
	return ix
}

func (ix *tableIndex) put(k tuple.Key, d int) {
	mask := uint64(len(ix.slots) - 1)
	i := ix.slot(k)
	for ix.slots[i].used {
		i = (i + 1) & mask
	}
	ix.slots[i] = indexSlot{key: k, dest: int32(d), used: true}
}

// lookup returns k's explicit destination and whether it has one.
func (ix *tableIndex) lookup(k tuple.Key) (int, bool) {
	mask := uint64(len(ix.slots) - 1)
	for i := ix.slot(k); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == k {
			return int(s.dest), true
		}
	}
}

// Assignment is the full partition function F = (A, h). It is immutable
// after construction so upstream tasks can share it without locking;
// rebalancing installs a fresh Assignment.
type Assignment struct {
	table *Table
	hash  Hasher
	// empty caches table.Len() == 0 at construction so the common
	// hash-only assignment (the Storm baseline, and every pre-rebalance
	// interval) skips the table probe entirely on the per-tuple path, and
	// index is the table as the per-tuple path reads it. Both are sound
	// because wrapped tables are immutable snapshots.
	empty bool
	index tableIndex
	// probe is the index DestTuples reads: index itself, or — once
	// SetSplits attaches a split set — the table and the split keys
	// frozen together, so a split tuple costs the feeder one probe.
	probe tableIndex
	// ring is hash when it is the consistent-hash ring — always, outside
	// tests — so the batch paths inline its lookup instead of calling
	// through the Hasher interface per tuple.
	ring *hashring.Ring
	// splits is the hot-key split set published alongside the table
	// through the same atomic pointer, so feeders resolve split routing
	// and ring routing from one atomic load. nil means no key is
	// split — the cold path costs a single nil check per batch.
	splits *SplitTable
}

// NewAssignment pairs a routing table with a hasher. A nil table is
// treated as empty (pure hashing, the paper's Storm baseline).
func NewAssignment(table *Table, hash Hasher) *Assignment {
	if table == nil {
		table = NewTable()
	}
	a := &Assignment{table: table, hash: hash, empty: len(table.m) == 0}
	if !a.empty {
		a.index = newTableIndex(table.m, nil)
	}
	a.probe = a.index
	a.ring, _ = hash.(*hashring.Ring)
	return a
}

// Dest evaluates F(k).
func (a *Assignment) Dest(k tuple.Key) int {
	if !a.empty {
		if d, ok := a.index.lookup(k); ok {
			return d
		}
	}
	return a.hash.Hash(k)
}

// DestTuples evaluates F over a whole batch of tuples in one pass — the
// form the engine's batched feeder uses: dsts[i] = F(ts[i].Key), except
// that with a split set attached a split key's tuple gets ^j, j being
// the key's position in the split set (SplitTable.At), from the same
// single probe. Each key probes the frozen table and goes to the ring
// only on a miss, both inlined, with no interface dispatch per key.
func (a *Assignment) DestTuples(ts []tuple.Tuple, dsts []int) {
	dsts = dsts[:len(ts)]
	switch {
	case a.ring == nil:
		for i := range ts {
			k := ts[i].Key
			dsts[i] = a.hash.Hash(k)
			if len(a.probe.slots) != 0 {
				if d, ok := a.probe.lookup(k); ok {
					dsts[i] = d
				}
			}
		}
	case len(a.probe.slots) == 0:
		a.ring.HashTuples(ts, dsts)
	default:
		for i := range ts {
			k := ts[i].Key
			if d, ok := a.probe.lookup(k); ok {
				dsts[i] = d
			} else {
				dsts[i] = a.ring.Owner(hashring.Position(k))
			}
		}
	}
}

// HashDest evaluates the hash half h(k) regardless of the table.
func (a *Assignment) HashDest(k tuple.Key) int { return a.hash.Hash(k) }

// Splits returns the hot-key split set carried by this assignment, or
// nil when no key is split.
func (a *Assignment) Splits() *SplitTable { return a.splits }

// SetSplits attaches a split set and freezes it into the index
// DestTuples probes. It may only be called before the
// atomic store that publishes the assignment; an empty table is
// normalized to nil so the feed path's cold check stays a nil test.
func (a *Assignment) SetSplits(st *SplitTable) {
	if st != nil && st.Len() == 0 {
		st = nil
	}
	a.splits = st
	a.probe = a.index
	if st != nil {
		a.probe = newTableIndex(a.table.m, st)
	}
}

// Table returns the underlying routing table (callers must not mutate).
func (a *Assignment) Table() *Table { return a.table }

// Hasher returns the hash half of the assignment.
func (a *Assignment) Hasher() Hasher { return a.hash }

// Instances returns ND, the number of downstream instances.
func (a *Assignment) Instances() int { return a.hash.Instances() }
