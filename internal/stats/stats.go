// Package stats collects and summarizes the per-key measurements the
// rebalance planners consume: tuple frequency g_i(k), computation cost
// c_i(k), per-interval state size s_i(k) and its windowed sum S_i(k,w)
// (§II-A). It also computes the per-instance load L_i(d, F), the
// balance indicator θ_i(d, F) and the workload-skewness metric
// max L(d) / L̄ reported throughout §V.
//
// # Tracker layout
//
// A Tracker is the statistics face of a task's key directory
// (state.Dir), the structure the task's state store is the other face
// of: one key table whose key records carry the running window sum
// S(k, w), and one ring of w+1 per-interval record lists whose records
// carry each interval's cost, frequency and state size beside the
// store's bucket. The first touch of a key in an interval appends its
// record to the current list, which is the close's harvest input; the
// close subtracts the list leaving the window from its keys' sums, adds
// the current one's, and yields one unsorted tally per touched key.
// EndInterval radix-sorts the tallies into a recycled run of KeyStats:
// O(touched keys) per close, no allocation once the buffers have
// grown. That run is the harvest: there is no other report form.
//
// # Snapshot
//
// A stage's Snapshot is the k-way merge of its tasks' runs (MergeRuns)
// into a buffer the caller recycles. Everything downstream reads that
// one run where it lies — the control round ships it as its report, the
// planners index it — so nobody copies it who does not need to keep it.
package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/tuple"
)

// KeyStat is the planner-facing record for one key, estimated from the
// previous interval's measurements as the problem formulation (§II-B)
// prescribes.
type KeyStat struct {
	Key  tuple.Key
	Cost int64 // c_{i-1}(k): CPU cost of the key's tuples last interval
	Freq int64 // g_{i-1}(k): tuple count last interval
	Mem  int64 // S_{i-1}(k, w): windowed state size (migration cost unit)
	Dest int   // current destination F(k)
	Hash int   // hash destination h(k)
}

// Routed reports whether the key currently occupies a routing-table
// entry (its destination differs from its hash default).
func (ks KeyStat) Routed() bool { return ks.Dest != ks.Hash }

// Snapshot is one interval's worth of statistics for a single operator:
// everything the balance algorithms in §III need to construct F′.
type Snapshot struct {
	Interval int64
	ND       int
	Keys     []KeyStat
	// Pinned, when non-nil, holds ND per-instance loads no plan can
	// move: the shares of split keys that run on replica sets and are
	// not among Keys. Loads and every planner count an instance's load
	// from its Pinned entry up, so L̄ and Lmax include them.
	Pinned []int64
}

// Loads returns L(d) for every instance under the snapshot's recorded
// destinations, Pinned included.
func (s *Snapshot) Loads() []int64 {
	loads := make([]int64, s.ND)
	copy(loads, s.Pinned)
	for _, ks := range s.Keys {
		loads[ks.Dest] += ks.Cost
	}
	return loads
}

// TotalCost returns Σ_k c(k).
func (s *Snapshot) TotalCost() int64 {
	var t int64
	for _, ks := range s.Keys {
		t += ks.Cost
	}
	return t
}

// TotalMem returns Σ_k S(k,w), the denominator of the migration-cost
// percentage reported in the paper's figures.
func (s *Snapshot) TotalMem() int64 {
	var t int64
	for _, ks := range s.Keys {
		t += ks.Mem
	}
	return t
}

// AvgLoad returns L̄ = Σ L(d) / ND, Pinned included.
func (s *Snapshot) AvgLoad() float64 {
	if s.ND == 0 {
		return 0
	}
	t := s.TotalCost()
	for _, p := range s.Pinned {
		t += p
	}
	return float64(t) / float64(s.ND)
}

// Clone deep-copies the snapshot so planners can mutate destinations
// while the caller retains the original.
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{Interval: s.Interval, ND: s.ND, Keys: make([]KeyStat, len(s.Keys))}
	copy(c.Keys, s.Keys)
	if s.Pinned != nil {
		c.Pinned = append([]int64(nil), s.Pinned...)
	}
	return c
}

// KeyStatLess is the canonical snapshot ordering: descending cost,
// key-ascending tie-break, destination-ascending final tie-break. Cost
// and key alone order any snapshot whose keys are unique (every
// assignment-routed stage); the destination term makes the order total
// for shuffle- and PKG-style stages where one key's tuples land on
// several instances, so merging per-task sorted runs is deterministic
// and equal to sorting the concatenation.
func KeyStatLess(a, b KeyStat) bool {
	if a.Cost != b.Cost {
		return a.Cost > b.Cost
	}
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Dest < b.Dest
}

// compareKeyStats is KeyStatLess as a three-way comparison.
func compareKeyStats(a, b KeyStat) int {
	if c := cmp.Compare(b.Cost, a.Cost); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Dest, b.Dest)
}

// SortByCostDesc orders keys by KeyStatLess — descending cost with
// key-ascending tie-break, the ordering both LLFD and Simple iterate
// in. The order is total, so the result does not depend on the sorting
// algorithm.
func SortByCostDesc(keys []KeyStat) {
	slices.SortFunc(keys, compareKeyStats)
}

// mergeCursor is one run of a merge. It caches its head as three
// unsigned limbs whose lexicographic order is KeyStatLess — the cost
// complemented so that a higher cost sorts first, then the key, then
// the destination — so a match is one 192-bit comparison. An exhausted
// run holds the largest value there is and loses every match.
type mergeCursor struct {
	cost, key, dest uint64
	run             []KeyStat
}

func (c *mergeCursor) load() {
	if len(c.run) == 0 {
		c.cost, c.key, c.dest = math.MaxUint64, math.MaxUint64, math.MaxUint64
		return
	}
	h := &c.run[0]
	// Flipping the sign bit orders int64 as uint64; the complement
	// reverses it.
	c.cost, c.key, c.dest = ^(uint64(h.Cost) ^ 1<<63), uint64(h.Key), uint64(h.Dest)^1<<63
}

// beats is 1 when a's head precedes b's under KeyStatLess and 0
// otherwise, as the borrow of a − b: no branch, because which of two
// runs wins a match is a coin flip the predictor loses half the time.
func (a *mergeCursor) beats(b *mergeCursor) uint64 {
	_, borrow := bits.Sub64(a.dest, b.dest, 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	_, borrow = bits.Sub64(a.cost, b.cost, borrow)
	return borrow
}

// MergeRuns k-way-merges per-task sorted runs (each ordered by
// KeyStatLess) onto dst, which it returns — the harvest merge
// Stage.EndInterval uses instead of re-sorting the concatenated runs.
// The appended entries are exactly SortByCostDesc over the
// concatenation. The merge is a tournament tree of losers: after the
// winner's run advances, only the ⌈log₂ k⌉ matches on its path to the
// root are replayed. The result never aliases a run: callers pass a
// buffer they recycle (dst[:0]) and the merge allocates only to grow it
// (and, past 16 runs, the tree).
func MergeRuns(dst []KeyStat, runs [][]KeyStat) []KeyStat {
	total := 0
	var fixedRuns [16]mergeCursor
	cs := fixedRuns[:0]
	for _, r := range runs {
		if len(r) > 0 {
			total += len(r)
			cs = append(cs, mergeCursor{run: r})
			cs[len(cs)-1].load()
		}
	}
	dst = slices.Grow(dst, total)
	k := len(cs)
	if k == 0 {
		return dst
	}
	// losers[n], 1 ≤ n < k, is the run that lost the match at internal
	// node n; run j's leaf is node k+j and losers[0] the overall winner.
	// The tree is filled by entering the runs one at a time: a run waits
	// at the first empty node on its way up and plays whoever arrives
	// next, so every node ends up holding the loser of its two subtrees.
	var fixedTree [16]int32
	losers := fixedTree[:]
	if k > len(fixedTree) {
		losers = make([]int32, k)
	}
	for n := range losers[:k] {
		losers[n] = -1
	}
	for j := 0; j < k; j++ {
		w := int32(j)
		for n := (k + j) / 2; n >= 1; n /= 2 {
			if losers[n] < 0 {
				losers[n], w = w, -1
				break
			}
			if cs[losers[n]].beats(&cs[w]) != 0 {
				losers[n], w = w, losers[n]
			}
		}
		if w >= 0 {
			losers[0] = w
		}
	}
	for ; total > 0; total-- {
		w := losers[0]
		c := &cs[w]
		dst = append(dst, c.run[0])
		c.run = c.run[1:]
		c.load()
		for n := (k + int(w)) / 2; n >= 1; n /= 2 {
			// The parked loser and the climbing winner trade places when
			// the loser wins, by mask rather than by branch.
			l := losers[n]
			x := (l ^ w) & -int32(cs[l].beats(&cs[w]))
			losers[n], w = l^x, w^x
		}
		losers[0] = w
	}
	return dst
}

// Theta returns the balance indicator θ(d) = |L(d) − L̄| / L̄ for every
// instance. A zero average load yields all-zero indicators.
func Theta(loads []int64) []float64 {
	avg := avgOf(loads)
	out := make([]float64, len(loads))
	if avg == 0 {
		return out
	}
	for i, l := range loads {
		d := float64(l) - avg
		if d < 0 {
			d = -d
		}
		out[i] = d / avg
	}
	return out
}

// MaxTheta returns max_d θ(d), the quantity constrained by θmax.
func MaxTheta(loads []int64) float64 {
	var m float64
	for _, t := range Theta(loads) {
		if t > m {
			m = t
		}
	}
	return m
}

// OverloadTheta returns max_d (L(d) − L̄)/L̄ clamped at 0: the overload
// side of the balance indicator. This is the quantity the algorithms'
// Lmax = (1+θmax)·L̄ constraint actually bounds; an instance can remain
// *under*loaded without any key placement being able to fix it (e.g.
// fewer heavy keys than instances), so feasibility is judged one-sided.
func OverloadTheta(loads []int64) float64 {
	avg := avgOf(loads)
	if avg == 0 {
		return 0
	}
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	over := (float64(max) - avg) / avg
	if over < 0 {
		return 0
	}
	return over
}

// Skewness returns max L(d) / L̄, the "workload skewness" metric of
// Fig. 7. Returns 1 for a perfectly balanced or empty load vector.
func Skewness(loads []int64) float64 {
	avg := avgOf(loads)
	if avg == 0 {
		return 1
	}
	var max int64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return float64(max) / avg
}

func avgOf(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var t int64
	for _, l := range loads {
		t += l
	}
	return float64(t) / float64(len(loads))
}
