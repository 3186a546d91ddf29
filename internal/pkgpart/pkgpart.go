// Package pkgpart reimplements PKG — Partial Key Grouping (Nasir et
// al., "The power of both choices: Practical load balancing for
// distributed stream processing engines", ICDE 2015) — the split-key
// baseline of the reproduced paper's evaluation.
//
// PKG gives every key two candidate instances via two independent hash
// functions and routes each tuple to whichever candidate the source
// currently estimates as less loaded. Splitting keys balances load
// without migration, but the semantics of key-based stateful operations
// now require a downstream *merge* operator that combines the two
// partial states per key every p milliseconds (Fig. 2 of the paper);
// the merge overhead is what costs PKG throughput in Fig. 14.
package pkgpart

import (
	"repro/internal/tuple"
)

// Router implements the two-choices routing decision. One Router lives
// in each upstream task; the load vector is the sender's local estimate
// (tuple counts), exactly as in the published algorithm — senders do
// not coordinate.
type Router struct {
	nd    int
	loads []int64
	seedA uint64
	seedB uint64
}

// NewRouter creates a PKG router over nd downstream instances.
func NewRouter(nd int) *Router {
	return &Router{nd: nd, loads: make([]int64, nd), seedA: 0x9e3779b97f4a7c15, seedB: 0xc2b2ae3d27d4eb4f}
}

// Candidates returns the key's two candidate instances d1, d2.
func (r *Router) Candidates(k tuple.Key) (int, int) {
	h1 := mix(uint64(k) ^ r.seedA)
	h2 := mix(uint64(k) ^ r.seedB)
	d1 := int(h1 % uint64(r.nd))
	d2 := int(h2 % uint64(r.nd))
	if d1 == d2 && r.nd > 1 {
		// Degenerate collision: derive the second choice by offset so
		// every key always has two distinct candidates.
		d2 = (d1 + 1 + int((h2>>32)%uint64(r.nd-1))) % r.nd
	}
	return d1, d2
}

// Route picks the less-loaded candidate for the tuple's key, charges the
// tuple's cost to it and returns it.
func (r *Router) Route(t tuple.Tuple) int {
	d1, d2 := r.Candidates(t.Key)
	d := d1
	if r.loads[d2] < r.loads[d1] {
		d = d2
	}
	r.loads[d] += t.Cost
	return d
}

// DestTuples routes every tuple of ts in order, writing its instance
// into dst: a batch of Route calls, one sender's view.
func (r *Router) DestTuples(ts []tuple.Tuple, dst []int) {
	for i := range ts {
		dst[i] = r.Route(ts[i])
	}
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Merger models PKG's downstream partial-result combiner for key-based
// aggregations: each upstream partial (key, value) pair lands in one of
// the key's two slots; Flush combines and emits totals every period.
// The merge work per flush is proportional to the number of live keys,
// which is the extra computation the paper charges PKG for.
type Merger struct {
	partial map[tuple.Key]int64
	// FlushedKeys counts key-merges performed, a proxy for merge cost.
	FlushedKeys int64
	flushed     map[tuple.Key]int64
}

// NewMerger returns an empty merger.
func NewMerger() *Merger {
	return &Merger{partial: make(map[tuple.Key]int64), flushed: make(map[tuple.Key]int64)}
}

// Add accumulates a partial count for key k.
func (m *Merger) Add(k tuple.Key, v int64) {
	m.partial[k] += v
}

// Flush merges all pending partials into the global result and returns
// the number of keys merged this period.
func (m *Merger) Flush() int {
	n := len(m.partial)
	for k, v := range m.partial {
		m.flushed[k] += v
		m.FlushedKeys++
		delete(m.partial, k)
	}
	return n
}

// Result returns the merged total for key k.
func (m *Merger) Result(k tuple.Key) int64 { return m.flushed[k] }
