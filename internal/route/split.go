package route

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/tuple"
)

// Split is one hot key's replica set: the key fans out round-robin
// across Replicas on the feed path while every observable (arrival
// accounting, statistics, snapshots) stays charged to Home, the
// destination the assignment function F(k) resolves to. Home is always
// a member of Replicas, so the unsplit routing decision is one of the
// split ones — folding the replicas' commutative deltas back into Home
// at interval close reconstructs the unsplit run exactly.
type Split struct {
	Key      tuple.Key
	Home     int
	Replicas []int
	// ctr is the round-robin cursor. It is the only mutable word on the
	// split-routing path and is deliberately shared across the
	// assignments a Split survives into (the cursor is a scheduling hint,
	// not an observable).
	ctr atomic.Uint64
}

// NewSplit builds a split for k fanning out over fan consecutive
// instances starting at home (mod nd). fan is clamped to [2, nd].
func NewSplit(k tuple.Key, home, fan, nd int) *Split {
	if fan < 2 {
		fan = 2
	}
	if fan > nd {
		fan = nd
	}
	reps := make([]int, fan)
	for i := range reps {
		reps[i] = (home + i) % nd
	}
	return &Split{Key: k, Home: home, Replicas: reps}
}

// Claim reserves n consecutive round-robin slots and returns the first:
// slot s sends its tuple to Replicas[s % Fan()]. A feeder claims a whole
// batch's worth of a key's tuples with one atomic add, so concurrent
// feeders never share a slot.
func (s *Split) Claim(n int) uint64 { return s.ctr.Add(uint64(n)) - uint64(n) }

// Fan returns the replica count.
func (s *Split) Fan() int { return len(s.Replicas) }

// SplitTable is the set of currently split keys. Like Table it is an
// immutable snapshot once published through an Assignment; transitions
// install a fresh table via the same atomic pointer swap that
// publishes a new routing assignment. A split set holds a few keys
// (topology.HotKeySplit's maxKeys), so it is an array in ascending key
// order; the feed path finds a tuple's split through the assignment's
// probe index (Assignment.SetSplits), not here.
type SplitTable struct {
	splits []*Split
}

// NewSplitTable returns an empty split table.
func NewSplitTable() *SplitTable { return &SplitTable{} }

// Put inserts or replaces the split for s.Key.
func (t *SplitTable) Put(s *Split) {
	i, ok := slices.BinarySearchFunc(t.splits, s.Key, func(x *Split, k tuple.Key) int { return cmp.Compare(x.Key, k) })
	if ok {
		t.splits[i] = s
	} else {
		t.splits = slices.Insert(t.splits, i, s)
	}
}

// Index returns the position of k's split in ascending key order, or -1
// when k is not split.
func (t *SplitTable) Index(k tuple.Key) int {
	for i, s := range t.splits {
		if s.Key == k {
			return i
		}
	}
	return -1
}

// At returns the split at position i of ascending key order.
func (t *SplitTable) At(i int) *Split { return t.splits[i] }

// Lookup returns the split for k and whether one exists.
func (t *SplitTable) Lookup(k tuple.Key) (*Split, bool) {
	if i := t.Index(k); i >= 0 {
		return t.splits[i], true
	}
	return nil, false
}

// Len returns the number of split keys.
func (t *SplitTable) Len() int { return len(t.splits) }

// Keys returns the split keys in ascending order.
func (t *SplitTable) Keys() []tuple.Key {
	ks := make([]tuple.Key, len(t.splits))
	for i, s := range t.splits {
		ks[i] = s.Key
	}
	return ks
}

// Each calls fn for every split in ascending key order.
func (t *SplitTable) Each(fn func(*Split)) {
	for _, s := range t.splits {
		fn(s)
	}
}
