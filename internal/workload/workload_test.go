package workload

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	for _, z := range []float64{0, 0.5, 0.85, 1.0} {
		d := NewZipf(1000, z)
		var sum float64
		for r := 1; r <= d.K; r++ {
			sum += d.Prob(r)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("z=%v: ΣP = %v, want 1", z, sum)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher z concentrates more mass on rank 1; z = 0 is uniform.
	d0 := NewZipf(100, 0)
	d85 := NewZipf(100, 0.85)
	if math.Abs(d0.Prob(1)-0.01) > 1e-9 {
		t.Fatalf("z=0 P(1) = %v, want 0.01", d0.Prob(1))
	}
	if d85.Prob(1) <= d0.Prob(1) {
		t.Fatalf("z=0.85 P(1)=%v not above uniform", d85.Prob(1))
	}
	for r := 2; r <= 100; r++ {
		if d85.Prob(r) > d85.Prob(r-1)+1e-12 {
			t.Fatalf("Zipf probabilities not non-increasing at rank %d", r)
		}
	}
}

func TestZipfRankInRange(t *testing.T) {
	d := NewZipf(50, 0.85)
	rng := rand.New(rand.NewSource(1))
	f := func(_ uint8) bool {
		r := d.Rank(rng)
		return r >= 1 && r <= 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSamplingMatchesDistribution(t *testing.T) {
	d := NewZipf(10, 0.85)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, 11)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[d.Rank(rng)]++
	}
	for r := 1; r <= 10; r++ {
		want := d.Prob(r)
		got := float64(counts[r]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("rank %d: sampled %.4f, expected %.4f", r, got, want)
		}
	}
}

func TestExpectedCountsSumToN(t *testing.T) {
	d := NewZipf(97, 0.85)
	var sum int64
	for _, c := range d.ExpectedCounts(10000) {
		sum += c
	}
	if sum < 9990 || sum > 10000 {
		t.Fatalf("ΣExpectedCounts = %d, want ≈10000", sum)
	}
}

// fixedAsg assigns keys modulo nd, for fluctuation tests.
type fixedAsg int

func (f fixedAsg) Dest(k tuple.Key) int { return int(uint64(k) % uint64(f)) }
func (f fixedAsg) Instances() int       { return int(f) }

// K returns the key-domain size.
func (s *ZipfStream) K() int { return s.dist.K }

// K returns the vocabulary size.
func (s *Social) K() int { return s.dist.K }

// K returns the symbol count.
func (s *Stock) K() int { return s.dist.K }

// HottestKeys returns the n currently hottest keys.
func (s *ZipfStream) HottestKeys(n int) []tuple.Key {
	if n > len(s.perm) {
		n = len(s.perm)
	}
	out := make([]tuple.Key, n)
	copy(out, s.perm[:n])
	return out
}

// ExpectedLoad returns the expected per-key costs for one interval
// under the current rank permutation.
func (s *ZipfStream) ExpectedLoad() map[tuple.Key]int64 {
	keys, counts := s.RankLoad()
	out := make(map[tuple.Key]int64, len(counts))
	for r, c := range counts {
		if c > 0 {
			out[keys[r]] = c
		}
	}
	return out
}

// ExpectedLoad returns expected per-key costs for an interval of n
// tuples under the current permutation.
func (s *Social) ExpectedLoad(n int64) map[tuple.Key]int64 {
	counts := s.dist.ExpectedCounts(n)
	out := make(map[tuple.Key]int64, 4096)
	for r, c := range counts {
		if c > 0 {
			out[s.perm[r]] = c
		}
	}
	return out
}

// ExpectedLoad returns expected per-key costs for an interval of n
// tuples, including burst boosts.
func (s *Stock) ExpectedLoad(n int64) map[tuple.Key]int64 {
	share := s.burstShare()
	base := s.dist.ExpectedCounts(int64(float64(n) * (1 - share)))
	out := make(map[tuple.Key]int64, s.dist.K)
	for r, c := range base {
		if c > 0 {
			out[s.perm[r]] = c
		}
	}
	if len(s.bursts) > 0 {
		per := int64(share * float64(n) / float64(len(s.bursts)))
		for _, b := range s.bursts {
			out[b.key] += per
		}
	}
	return out
}

// generator is one workload family behind the draw and interval-boundary
// calls the engine makes on it. batch is nil for a family the engine
// draws through Next (engine.BatchSpout).
type generator struct {
	name    string
	next    func() tuple.Tuple
	batch   func([]tuple.Tuple) int
	advance func()
}

// newGenerators builds one of each generator family from seed.
func newGenerators(seed int64) []generator {
	z := NewZipfStream(1000, 0.85, 1.0, 10000, seed)
	so := NewSocial(2000, 0.85, 0.002, seed)
	st := NewStock(0, 0.85, seed)
	cfg := DefaultTPCHConfig()
	cfg.Seed = seed
	tp := NewTPCH(cfg)
	return []generator{
		{"zipf", z.Next, z.NextBatch, func() { z.Advance(fixedAsg(4)) }},
		{"social", so.Next, nil, so.Advance},
		{"stock", st.Next, nil, st.Advance},
		{"tpch", tp.Next, nil, tp.Advance},
	}
}

// TestGeneratorsDeterministicGivenSeed pins README's determinism
// contract: two generators built from one seed emit the same tuples,
// field for field, across interval boundaries. Stock once drew its
// bursting symbol in a map's range order and failed this.
func TestGeneratorsDeterministicGivenSeed(t *testing.T) {
	as, bs := newGenerators(7), newGenerators(7)
	for g := range as {
		a, b := as[g], bs[g]
		t.Run(a.name, func(t *testing.T) {
			for iv := 0; iv < 50; iv++ {
				for i := 0; i < 2000; i++ {
					if x, y := a.next(), b.next(); x != y {
						t.Fatalf("interval %d draw %d: %+v ≠ %+v", iv, i, x, y)
					}
				}
				a.advance()
				b.advance()
			}
		})
	}
}

func TestZipfStreamAdvanceShiftsLoad(t *testing.T) {
	s := NewZipfStream(1000, 0.85, 0.5, 10000, 3)
	asg := fixedAsg(4)
	before := instLoads(s.ExpectedLoad(), asg)
	s.Advance(asg)
	after := instLoads(s.ExpectedLoad(), asg)
	avg := 10000.0 / 4
	var totalShift float64
	for d := range before {
		totalShift += math.Abs(float64(after[d]-before[d])) / avg
	}
	if totalShift < 0.5 {
		t.Fatalf("Advance(f=0.5) shifted Σ|ΔL|/L̄ = %.3f, want ≥ 0.5", totalShift)
	}
}

func TestZipfStreamFluctuationIsTransient(t *testing.T) {
	// Short-term fluctuations perturb a stable base: after many
	// Advances, the hottest keys still come from the base head rather
	// than drifting arbitrarily.
	s := NewZipfStream(1000, 0.85, 1.0, 10000, 4)
	baseHot := map[tuple.Key]bool{}
	for _, k := range s.HottestKeys(50) {
		baseHot[k] = true
	}
	asg := fixedAsg(4)
	for i := 0; i < 30; i++ {
		s.Advance(asg)
	}
	overlap := 0
	for _, k := range s.HottestKeys(50) {
		if baseHot[k] {
			overlap++
		}
	}
	if overlap < 25 {
		t.Fatalf("only %d/50 hot keys survived 30 intervals; fluctuation must be transient", overlap)
	}
}

func TestZipfStreamZeroFluctuationIsStatic(t *testing.T) {
	s := NewZipfStream(100, 0.85, 0, 1000, 1)
	before := s.HottestKeys(10)
	s.Advance(fixedAsg(4))
	after := s.HottestKeys(10)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("f=0 stream changed its permutation")
		}
	}
}

func instLoads(load map[tuple.Key]int64, asg fixedAsg) []int64 {
	out := make([]int64, asg.Instances())
	for k, c := range load {
		out[asg.Dest(k)] += c
	}
	return out
}

func TestSocialDriftIsGradual(t *testing.T) {
	s := NewSocial(5000, 0.85, 0.01, 2)
	before := s.ExpectedLoad(100000)
	s.Advance()
	after := s.ExpectedLoad(100000)
	// Hot-key mass must be nearly unchanged interval-to-interval.
	var diff, total int64
	for k, c := range before {
		d := c - after[k]
		if d < 0 {
			d = -d
		}
		diff += d
		total += c
	}
	if float64(diff)/float64(total) > 0.1 {
		t.Fatalf("social drift moved %.1f%% of mass in one interval; should be slow",
			100*float64(diff)/float64(total))
	}
}

func TestSocialTupleCarriesWord(t *testing.T) {
	s := NewSocial(100, 0.85, 0.01, 2)
	tp := s.Next()
	if w, ok := tp.Value.(string); !ok || w == "" {
		t.Fatalf("social tuple value = %v, want topic word", tp.Value)
	}
	if s.K() != 100 {
		t.Fatalf("K = %d, want 100", s.K())
	}
}

func TestSocialDefaultVocabulary(t *testing.T) {
	s := NewSocial(0, 0.85, 0.01, 1)
	if s.K() != SocialKeys {
		t.Fatalf("default vocabulary %d, want %d", s.K(), SocialKeys)
	}
}

func TestStockBurstsShiftLoadAbruptly(t *testing.T) {
	s := NewStock(0, 0.85, 5)
	if s.K() != StockKeys {
		t.Fatalf("K = %d, want %d", s.K(), StockKeys)
	}
	// Advance until a burst ignites (probability 0.6 per interval).
	for i := 0; i < 50 && s.ActiveBursts() == 0; i++ {
		s.Advance()
	}
	if s.ActiveBursts() == 0 {
		t.Fatal("no burst ignited in 50 intervals with BurstProb 0.6")
	}
	// A bursting symbol should now attract a visible share of draws.
	counts := make(map[tuple.Key]int)
	for i := 0; i < 50000; i++ {
		counts[s.Next().Key]++
	}
	burstKey := s.bursts[0].key
	if counts[burstKey] < 500 {
		t.Fatalf("bursting symbol drew only %d of 50000 tuples", counts[burstKey])
	}
}

func TestStockBurstsExpire(t *testing.T) {
	s := NewStock(100, 0.85, 9)
	s.BurstProb = 1.0
	s.Advance()
	if s.ActiveBursts() == 0 {
		t.Fatal("burst did not ignite with probability 1")
	}
	s.BurstProb = 0
	for i := 0; i < 5; i++ {
		s.Advance()
	}
	if s.ActiveBursts() != 0 {
		t.Fatalf("bursts did not expire: %d active", s.ActiveBursts())
	}
}

func TestTPCHDimensionsAndFacts(t *testing.T) {
	cfg := DefaultTPCHConfig()
	cfg.Customers, cfg.Suppliers, cfg.OrderPool = 1000, 100, 500
	g := NewTPCH(cfg)
	if len(g.Customers) != 1000 || len(g.Suppliers) != 100 {
		t.Fatalf("dimensions sized %d/%d", len(g.Customers), len(g.Suppliers))
	}
	var orders, lineitems int
	for i := 0; i < 5000; i++ {
		tp := g.Next()
		switch tp.Value.(type) {
		case Order:
			orders++
		case Lineitem:
			lineitems++
			li := tp.Value.(Lineitem)
			if tuple.Key(li.OrderKey) != tp.Key {
				t.Fatal("lineitem not keyed by orderkey")
			}
			if li.Discount < 0 || li.Discount > 0.1 {
				t.Fatalf("discount %v out of range", li.Discount)
			}
		default:
			t.Fatalf("unexpected tuple value %T", tp.Value)
		}
	}
	// Mix ≈ 1 order per LineitemsPerOrder lineitems.
	wantRatio := float64(cfg.LineitemsPerOrder)
	ratio := float64(lineitems) / float64(orders)
	if math.Abs(ratio-wantRatio) > 0.5 {
		t.Fatalf("lineitem/order ratio %.2f, want ≈%.0f", ratio, wantRatio)
	}
}

func TestTPCHForeignKeySkew(t *testing.T) {
	cfg := DefaultTPCHConfig()
	cfg.OrderPool = 1000
	g := NewTPCH(cfg)
	counts := make(map[tuple.Key]int)
	for i := 0; i < 50000; i++ {
		counts[g.Next().Key]++
	}
	var max, total int
	for _, c := range counts {
		if c > max {
			max = c
		}
		total += c
	}
	avg := float64(total) / float64(len(counts))
	if float64(max) < 4*avg {
		t.Fatalf("hot orderkey %d× avg %.1f: FK skew too weak for z=0.8", max, avg)
	}
}

func TestTPCHAdvanceShiftsHotKeys(t *testing.T) {
	cfg := DefaultTPCHConfig()
	cfg.OrderPool = 500
	g := NewTPCH(cfg)
	hotBefore := hotKey(g)
	g.Advance()
	hotAfter := hotKey(g)
	if hotBefore == hotAfter {
		t.Skip("hot key survived reshuffle (possible but rare); rerun-safe skip")
	}
}

func hotKey(g *TPCH) tuple.Key {
	counts := make(map[tuple.Key]int)
	for i := 0; i < 20000; i++ {
		counts[g.Next().Key]++
	}
	var best tuple.Key
	max := -1
	for k, c := range counts {
		if c > max {
			best, max = k, c
		}
	}
	return best
}

func TestRegionOfNation(t *testing.T) {
	if RegionOfNation(0) != 0 || RegionOfNation(4) != 0 || RegionOfNation(5) != 1 || RegionOfNation(24) != 4 {
		t.Fatal("nation→region mapping wrong")
	}
}

func TestNationLookupsStable(t *testing.T) {
	g := NewTPCH(DefaultTPCHConfig())
	if g.NationOfCust(1) != g.NationOfCust(1) {
		t.Fatal("customer nation lookup unstable")
	}
	n := g.NationOfSupp(5)
	if n < 0 || n >= len(Regions)*NationsPerRegion {
		t.Fatalf("supplier nation %d out of range", n)
	}
}

func TestStockExpectedLoadIncludesBursts(t *testing.T) {
	s := NewStock(200, 0.85, 13)
	s.BurstProb = 1.0
	s.Advance()
	if s.ActiveBursts() == 0 {
		t.Fatal("no burst after Advance with probability 1")
	}
	load := s.ExpectedLoad(10000)
	if load[s.bursts[len(s.bursts)-1].key] == 0 {
		t.Fatal("expected load omits the bursting symbol")
	}
	var total int64
	for _, c := range load {
		total += c
	}
	if total < 9000 || total > 10500 {
		t.Fatalf("expected load sums to %d, want ≈10000", total)
	}
}

func TestZipfStreamK(t *testing.T) {
	if NewZipfStream(123, 0.85, 0, 100, 1).K() != 123 {
		t.Fatal("K accessor wrong")
	}
}

func TestHottestKeysClamped(t *testing.T) {
	s := NewZipfStream(5, 0.85, 0, 100, 1)
	if got := len(s.HottestKeys(50)); got != 5 {
		t.Fatalf("HottestKeys(50) over 5 keys returned %d", got)
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	d := NewZipf(10, 0.85)
	if d.Prob(0) != 0 || d.Prob(11) != 0 {
		t.Fatal("out-of-range rank has nonzero probability")
	}
}

func TestNewZipfPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(0, 0.85)
}

// Batch draws must replicate the per-tuple draw sequence exactly: the
// engine's batched emission path relies on this to keep experiment
// outputs identical to the per-tuple path. The comparison is whole
// tuples, across interval boundaries and, for the Zipf stream, a
// PerInterval change (its Advance reads the memoized expected counts).
func TestNextBatchMatchesSequentialNext(t *testing.T) {
	seqs, batches := newGenerators(5), newGenerators(5)
	za := NewZipfStream(1000, 0.85, 1.0, 10000, 5)
	zb := NewZipfStream(1000, 0.85, 1.0, 10000, 5)
	zipfAdvance := func(s *ZipfStream) func() {
		iv := 0
		return func() {
			if iv++; iv == 2 {
				s.PerInterval = 3000
			}
			s.Advance(fixedAsg(4))
		}
	}
	seqs = append(seqs, generator{"zipf-budget", za.Next, nil, zipfAdvance(za)})
	batches = append(batches, generator{"zipf-budget", nil, zb.NextBatch, zipfAdvance(zb)})
	for g, seq := range seqs {
		bat := batches[g]
		if bat.batch == nil {
			continue
		}
		for iv, n := range []int{257, 1, 0, 4096} {
			buf := make([]tuple.Tuple, n)
			for i := range buf {
				buf[i] = tuple.Tuple{Key: 99, Value: "stale", Seq: 1 << 62}
			}
			if got := bat.batch(buf); got != n {
				t.Fatalf("%s: NextBatch returned %d, want %d", seq.name, got, n)
			}
			for i := range buf {
				if want := seq.next(); buf[i] != want {
					t.Fatalf("%s: interval %d draw %d batch %+v ≠ sequential %+v", seq.name, iv, i, buf[i], want)
				}
			}
			seq.advance()
			bat.advance()
		}
	}
}

// The memoized expected counts follow PerInterval, which callers
// reassign between intervals.
func TestExpectedCountsMemoFollowsPerInterval(t *testing.T) {
	s := NewZipfStream(1000, 0.85, 1.0, 10000, 5)
	for _, n := range []int64{10000, 10000, 3000, 0, 3000} {
		s.PerInterval = n
		s.Advance(fixedAsg(4))
		if _, got := s.RankLoad(); !slices.Equal(got, s.dist.ExpectedCounts(n)) {
			t.Fatalf("PerInterval %d: memoized counts differ from ExpectedCounts", n)
		}
	}
}

// TestZipfRankMatchesFullSearch pins the guide-table lookup to the
// search it narrows — the first CDF entry at or above the draw, over
// the whole CDF — for random draws and for the draws sitting on and
// next to every guide boundary, so every generator built on Rank emits
// the stream it always did. K = 1 000 and 100 000 get four slices per
// rank; K = 10⁶ is past the cap and gets about one.
func TestZipfRankMatchesFullSearch(t *testing.T) {
	for _, k := range []int{1, 2, 7, 1000, 100000, 1000000} {
		for _, z := range []float64{0, 0.5, 0.85, 1, 1.5} {
			d := NewZipf(k, z)
			// M is the smallest power of two that is ≥ K and ≥ min(4K, cap).
			big := func(m int) bool { return m >= k && m >= min(4*k, maxGuide) }
			if m := len(d.guide) - 1; m&(m-1) != 0 || !big(m) || big(m/2) {
				t.Fatalf("K=%d: guide has %d slices", k, m)
			}
			full := func(u float64) int {
				i := sort.SearchFloat64s(d.cdf, u)
				if i >= d.K {
					i = d.K - 1
				}
				return i + 1
			}
			check := func(u float64) {
				if got, want := d.rankAt(u), full(u); got != want {
					t.Fatalf("K=%d z=%v u=%v: rank %d, full search %d", k, z, u, got, want)
				}
			}
			rng := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 200000; i++ {
				check(rng.Float64())
			}
			m := len(d.guide) - 1
			for j := 0; j < m; j += 1 + m/4096 {
				edge := float64(j) / float64(m)
				check(edge)
				check(math.Nextafter(edge, 1))
				if j > 0 {
					check(math.Nextafter(edge, 0))
				}
			}
			check(math.Nextafter(1, 0))
			for _, c := range d.cdf[:min(k, 2000)] { // draws on the CDF's own steps
				if c < 1 {
					check(c)
					check(math.Nextafter(c, 1))
				}
			}
		}
	}
}
