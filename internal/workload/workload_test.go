package workload

import (
	"math"
	"math/rand"
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

func TestZipfStreamDeterministic(t *testing.T) {
	a := NewZipfStream(1000, 0.85, 1.0, 10000, 3)
	b := NewZipfStream(1000, 0.85, 1.0, 10000, 3)
	for i := 0; i < 500; i++ {
		if a.Next().Key != b.Next().Key {
			t.Fatal("same-seed streams diverged")
		}
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
	var burstKey tuple.Key
	for k := range s.bursts {
		burstKey = k
		break
	}
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
			if tp.Stream != "O" {
				t.Fatal("order tuple not tagged O")
			}
		case Lineitem:
			lineitems++
			if tp.Stream != "L" {
				t.Fatal("lineitem tuple not tagged L")
			}
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
	var burstKey tuple.Key
	for k := range s.bursts {
		burstKey = k
	}
	if load[burstKey] == 0 {
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
// outputs identical to the per-tuple path.
func TestNextBatchMatchesSequentialNext(t *testing.T) {
	type gen struct {
		name  string
		next  func() tuple.Tuple
		batch func([]tuple.Tuple) int
	}
	za := NewZipfStream(1000, 0.85, 1.0, 10000, 5)
	zb := NewZipfStream(1000, 0.85, 1.0, 10000, 5)
	sa := NewSocial(2000, 0.85, 0.002, 5)
	sb := NewSocial(2000, 0.85, 0.002, 5)
	ka := NewStock(0, 0.85, 5)
	kb := NewStock(0, 0.85, 5)
	ca := DefaultTPCHConfig()
	ca.Seed = 5
	cb := DefaultTPCHConfig()
	cb.Seed = 5
	ta := NewTPCH(ca)
	tb := NewTPCH(cb)
	gens := []gen{
		{"zipf", za.Next, zb.NextBatch},
		{"social", sa.Next, sb.NextBatch},
		{"stock", ka.Next, kb.NextBatch},
		{"tpch", ta.Next, tb.NextBatch},
	}
	for _, g := range gens {
		buf := make([]tuple.Tuple, 257)
		if got := g.batch(buf); got != len(buf) {
			t.Fatalf("%s: NextBatch returned %d, want %d", g.name, got, len(buf))
		}
		for i := range buf {
			want := g.next()
			if buf[i].Key != want.Key || buf[i].Seq != want.Seq ||
				buf[i].Cost != want.Cost || buf[i].StateSize != want.StateSize ||
				buf[i].Stream != want.Stream {
				t.Fatalf("%s: draw %d batch %+v ≠ sequential %+v", g.name, i, buf[i], want)
			}
		}
	}
}

// TestZipfRankMatchesFullSearch pins the guide-table lookup to the
// search it narrows — the first CDF entry at or above the draw, over
// the whole CDF — for random draws and for the draws sitting on and
// next to every guide boundary, so every generator built on Rank emits
// the stream it always did.
func TestZipfRankMatchesFullSearch(t *testing.T) {
	for _, k := range []int{1, 2, 7, 1000, 100000} {
		for _, z := range []float64{0, 0.5, 0.85, 1, 1.5} {
			d := NewZipf(k, z)
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
