package workload

import (
	"math/rand"

	"repro/internal/tuple"
)

// Assigner tells the generator which instance a key currently routes
// to; the fluctuation machinery needs it because the paper's generator
// "keeps swapping frequencies between keys from different task
// instances until the change on workload is significant enough".
type Assigner interface {
	Dest(k tuple.Key) int
	Instances() int
}

// ZipfStream is the paper's synthetic workload: a key domain of size K
// whose per-interval tuple frequencies follow Zipf(z), with a
// fluctuation parameter f that reshuffles which keys carry which
// frequency rank at every interval boundary (Tab. II: z default 0.85,
// f default 1.0).
type ZipfStream struct {
	dist *Zipf
	rng  *rand.Rand
	// perm maps frequency rank (0-based) to key: key perm[0] is the
	// hottest key this interval.
	perm []tuple.Key
	// base is the long-term rank permutation. Fluctuations are
	// *short-term* in the paper's taxonomy (§I distinguishes them from
	// long-term shifts), so every interval starts from base and applies
	// a fresh perturbation of magnitude f·L̄ rather than compounding
	// drift — the persistent hash-placement luck that motivates the
	// whole paper survives across intervals.
	base []tuple.Key
	// F is the fluctuation rate.
	F float64
	// PerInterval is the tuple budget per interval used for expected
	// load computations during fluctuation.
	PerInterval int64
	seq         uint64
	// counts memoizes dist.ExpectedCounts(countsFor): PerInterval is
	// exported and callers reassign it, so the memo is keyed on the n it
	// was computed for rather than filled once.
	counts    []int64
	countsFor int64
	// delta is Advance's per-instance load change, kept across calls.
	delta []float64
}

// NewZipfStream builds a stream over the integer key domain [0, K) with
// skew z and fluctuation rate f. The rank→key permutation starts as a
// random shuffle so hash placement of hot keys is unbiased.
func NewZipfStream(k int, z, f float64, perInterval int64, seed int64) *ZipfStream {
	rng := rand.New(rand.NewSource(seed))
	s := &ZipfStream{
		dist:        NewZipf(k, z),
		rng:         rng,
		perm:        make([]tuple.Key, k),
		base:        make([]tuple.Key, k),
		F:           f,
		PerInterval: perInterval,
	}
	for i := 0; i < k; i++ {
		s.perm[i] = tuple.Key(i)
	}
	rng.Shuffle(k, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	copy(s.base, s.perm)
	return s
}

// Next draws one unit-cost tuple from the current interval's
// distribution.
func (s *ZipfStream) Next() tuple.Tuple {
	r := s.dist.Rank(s.rng)
	s.seq++
	t := tuple.New(s.perm[r-1], nil)
	t.Seq = s.seq
	return t
}

// NextBatch fills dst from the current interval's distribution,
// identical tuple for tuple to len(dst) successive Next calls — the
// form the engine's batch spout path consumes. Always returns len(dst).
func (s *ZipfStream) NextBatch(dst []tuple.Tuple) int {
	d, rng, perm, seq := s.dist, s.rng, s.perm, s.seq
	for i := range dst {
		seq++
		dst[i] = tuple.Tuple{Key: perm[d.rankAt(rng.Float64())-1], Cost: 1, StateSize: 1, Seq: seq}
	}
	s.seq = seq
	return len(dst)
}

// RankLoad returns the current interval's expected load by rank, the
// planner-facing load shape without sampling noise: keys[r] carries
// counts[r] = E[count of rank r+1] of PerInterval unit-cost tuples.
// Both slices belong to the stream and must not be modified; Advance
// rewrites keys in place.
func (s *ZipfStream) RankLoad() (keys []tuple.Key, counts []int64) {
	return s.perm, s.expectedCounts()
}

// expectedCounts returns dist.ExpectedCounts(PerInterval), recomputed
// only when PerInterval has changed since the last call.
func (s *ZipfStream) expectedCounts() []int64 {
	if s.counts == nil || s.countsFor != s.PerInterval {
		s.counts, s.countsFor = s.dist.ExpectedCounts(s.PerInterval), s.PerInterval
	}
	return s.counts
}

// Advance applies the paper's fluctuation procedure at an interval
// boundary: repeatedly swap the frequency ranks of two keys currently
// routed to *different* instances until the workload change reaches
// the fluctuation target. With f = 0 the distribution is static.
//
// Interpretation note: the paper states the stop condition as
// |L_i(d) − L_{i−1}(d)|/L̄ ≥ f. Read as a per-instance maximum, f = 2
// would concentrate two instances' worth of load shift onto a single
// instance every interval — no scheme, including the paper's, could
// track that, yet Fig. 13 shows Mixed hugging the Ideal bound at
// f = 2.0. We therefore read the condition over the total change,
// Σ_d |ΔL(d)| ≥ f·L̄, which spreads a fluctuation of f·L̄ across
// instances and reproduces the published curve shapes.
func (s *ZipfStream) Advance(asg Assigner) {
	if s.F <= 0 {
		return
	}
	nd := asg.Instances()
	if nd < 2 {
		return
	}
	// Fresh perturbation of the stable base distribution.
	copy(s.perm, s.base)
	counts := s.expectedCounts()
	avg := float64(s.PerInterval) / float64(nd)
	target := s.F * avg
	if cap(s.delta) < nd {
		s.delta = make([]float64, nd)
	}
	delta := s.delta[:nd]
	clear(delta)
	// Hot ranks carry the load, so swaps that involve one reach the
	// fluctuation target in few steps; purely random pairs would need
	// O(K) swaps on large domains. Half the draws come from the head.
	head := len(s.perm)/100 + 2
	// Bound the swap loop: a capped number of attempts means the target
	// is unreachable (e.g. z = 0: all frequencies equal), so bail out
	// rather than spin.
	maxSwaps := 16*len(s.perm) + 4096
	if maxSwaps > 200000 {
		maxSwaps = 200000
	}
	for i := 0; i < maxSwaps; i++ {
		a := s.rng.Intn(len(s.perm))
		if i%2 == 0 {
			a = s.rng.Intn(head)
		}
		b := s.rng.Intn(len(s.perm))
		if a == b {
			continue
		}
		ka, kb := s.perm[a], s.perm[b]
		da, db := asg.Dest(ka), asg.Dest(kb)
		if da == db {
			continue
		}
		// Swapping ranks a and b moves count difference between the
		// two keys' instances.
		diff := float64(counts[a] - counts[b])
		delta[da] -= diff
		delta[db] += diff
		s.perm[a], s.perm[b] = s.perm[b], s.perm[a]
		var total float64
		for _, dd := range delta {
			total += abs(dd)
		}
		if total >= target {
			return
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
