package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/tuple"
)

// Stock models the paper's second real workload: 3 days of exchange
// records, >6M tuples over 1,036 stock IDs, with "abrupt and unexpected
// bursts on certain keys". A base Zipf tape is overlaid with burst
// events: at each interval boundary, with BurstProb per interval, a
// random symbol outside the top ranks multiplies its frequency by
// BurstFactor for a burst lasting 1–3 intervals.
type Stock struct {
	dist *Zipf
	rng  *rand.Rand
	perm []tuple.Key
	// BurstProb is the probability a new burst starts at an interval
	// boundary; BurstFactor scales a bursting symbol's draw weight.
	BurstProb   float64
	BurstFactor float64
	// bursts holds the bursting symbols in ignition order, so a draw
	// among them depends on the seed alone (a map's range order would
	// not).
	bursts []burst
	seq    uint64
}

// burst is one bursting symbol and its remaining intervals.
type burst struct {
	key  tuple.Key
	left int
}

// StockKeys is the symbol count from the paper.
const StockKeys = 1036

// NewStock builds the stock tape. keys ≤ 0 selects the paper's 1,036.
func NewStock(keys int, z float64, seed int64) *Stock {
	if keys <= 0 {
		keys = StockKeys
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Stock{
		dist:        NewZipf(keys, z),
		rng:         rng,
		perm:        make([]tuple.Key, keys),
		BurstProb:   0.6,
		BurstFactor: 40,
	}
	for i := range s.perm {
		s.perm[i] = tuple.Key(i)
	}
	rng.Shuffle(keys, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	return s
}

// Next draws one trade. Bursting symbols intercept a share of draws
// proportional to their boosted weight; Value carries a synthetic
// (symbol, volume) payload for the self-join example. Trades carry a
// state footprint of 1 so the sliding-window join state grows with
// trade frequency.
func (s *Stock) Next() tuple.Tuple {
	var k tuple.Key
	// With probability proportional to the boost mass, emit a bursting
	// symbol; otherwise draw from the base tape.
	if len(s.bursts) > 0 && s.rng.Float64() < s.burstShare() {
		k = s.bursts[s.rng.Intn(len(s.bursts))].key
	} else {
		k = s.perm[s.dist.Rank(s.rng)-1]
	}
	s.seq++
	t := tuple.New(k, fmt.Sprintf("trade-%d", s.seq))
	t.Seq = s.seq
	return t
}

// burstShare approximates the fraction of the tape the active bursts
// occupy: each burst contributes BurstFactor times a mid-rank weight.
func (s *Stock) burstShare() float64 {
	per := s.BurstFactor * s.dist.Prob(s.dist.K/4+1)
	share := per * float64(len(s.bursts))
	if share > 0.5 {
		share = 0.5
	}
	return share
}

// Advance rolls burst lifetimes and possibly ignites a new burst — the
// "abrupt and unexpected" regime.
func (s *Stock) Advance() {
	live := s.bursts[:0]
	for _, b := range s.bursts {
		if b.left > 1 {
			b.left--
			live = append(live, b)
		}
	}
	s.bursts = live
	if s.rng.Float64() < s.BurstProb {
		// Pick a symbol outside the top 10% so the burst really shifts load.
		r := s.dist.K/10 + s.rng.Intn(s.dist.K-s.dist.K/10)
		b := burst{key: s.perm[r], left: 1 + s.rng.Intn(3)}
		// A symbol that ignites again while bursting restarts its burst
		// in place.
		i := slices.IndexFunc(s.bursts, func(o burst) bool { return o.key == b.key })
		if i < 0 {
			s.bursts = append(s.bursts, b)
		} else {
			s.bursts[i] = b
		}
	}
}

// ActiveBursts returns how many symbols are bursting this interval.
func (s *Stock) ActiveBursts() int { return len(s.bursts) }
