package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/tuple"
)

// Social models the paper's first real workload: a 5-day microblog
// feed, >5M tuples over ~180k topic words, where "the word frequency
// usually changes slowly". We reproduce the trait with a Zipf word
// distribution whose rank permutation drifts gradually: each interval a
// small fraction of adjacent ranks swap, so hot topics rise and fall
// over many intervals instead of jumping.
type Social struct {
	dist *Zipf
	rng  *rand.Rand
	perm []tuple.Key
	// DriftFrac is the fraction of ranks nudged per interval.
	DriftFrac float64
	seq       uint64
	words     map[tuple.Key]string
}

// SocialKeys is the topic-word vocabulary size from the paper.
const SocialKeys = 180000

// NewSocial builds the social feed with the given vocabulary size
// (≤ 0 selects the paper's 180k), skew and drift fraction per interval.
func NewSocial(keys int, z, drift float64, seed int64) *Social {
	if keys <= 0 {
		keys = SocialKeys
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Social{
		dist:      NewZipf(keys, z),
		rng:       rng,
		perm:      make([]tuple.Key, keys),
		DriftFrac: drift,
		words:     make(map[tuple.Key]string),
	}
	for i := range s.perm {
		s.perm[i] = tuple.Key(i)
	}
	rng.Shuffle(keys, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	return s
}

// Next draws one feed word as a unit-cost tuple; Value carries the
// word string for the word-count example application.
func (s *Social) Next() tuple.Tuple {
	r := s.dist.Rank(s.rng)
	k := s.perm[r-1]
	s.seq++
	w := s.words[k]
	if w == "" {
		w = fmt.Sprintf("topic-%06d", uint64(k))
		s.words[k] = w
	}
	t := tuple.New(k, w)
	t.Seq = s.seq
	return t
}

// Advance drifts the distribution slowly: DriftFrac·K random adjacent
// rank swaps. Adjacent swaps change each key's frequency only
// marginally — the "slowly changing" regime.
func (s *Social) Advance() {
	n := int(s.DriftFrac * float64(len(s.perm)))
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		a := s.rng.Intn(len(s.perm) - 1)
		s.perm[a], s.perm[a+1] = s.perm[a+1], s.perm[a]
	}
}
