package pkgpart

import (
	"testing"
	"testing/quick"

	"repro/internal/tuple"
	"repro/internal/workload"
)

func TestCandidatesDistinctAndStable(t *testing.T) {
	r := NewRouter(10)
	f := func(k uint64) bool {
		d1, d2 := r.Candidates(tuple.Key(k))
		e1, e2 := r.Candidates(tuple.Key(k))
		return d1 == e1 && d2 == e2 && d1 != d2 &&
			d1 >= 0 && d1 < 10 && d2 >= 0 && d2 < 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteOnlyToCandidates(t *testing.T) {
	r := NewRouter(8)
	for k := tuple.Key(0); k < 2000; k++ {
		d1, d2 := r.Candidates(k)
		d := r.Route(tuple.New(k, nil))
		if d != d1 && d != d2 {
			t.Fatalf("key %d routed to %d, candidates %d/%d", k, d, d1, d2)
		}
	}
}

func TestTwoChoicesBalancesHotKey(t *testing.T) {
	// One pathological key hammered 10000 times: PKG splits it across
	// its two candidates roughly evenly — the behaviour key grouping
	// cannot offer.
	r := NewRouter(4)
	hot := tuple.Key(7)
	for i := 0; i < 10000; i++ {
		r.Route(tuple.New(hot, nil))
	}
	d1, d2 := r.Candidates(hot)
	l1, l2 := r.loads[d1], r.loads[d2]
	if l1+l2 != 10000 {
		t.Fatalf("hot key load %d+%d, want 10000 total", l1, l2)
	}
	diff := l1 - l2
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("two-choices split %d/%d; should alternate", l1, l2)
	}
}

func TestTwoChoicesBalancesSkewedStream(t *testing.T) {
	// Zipf-ish synthetic stream: the max/avg load ratio under PKG must
	// stay near 1 (the ICDE'15 result our baseline must reproduce).
	r := NewRouter(5)
	for i := 0; i < 50000; i++ {
		k := tuple.Key(i % 100)
		if i%3 != 0 {
			k = tuple.Key(i % 7) // heavy head
		}
		r.Route(tuple.New(k, nil))
	}
	var max, sum int64
	for _, l := range r.loads {
		if l > max {
			max = l
		}
		sum += l
	}
	avg := float64(sum) / 5
	if float64(max)/avg > 1.1 {
		t.Fatalf("PKG skew %v, want ≤ 1.1", float64(max)/avg)
	}
}

func TestSingleInstanceRouter(t *testing.T) {
	r := NewRouter(1)
	for k := tuple.Key(0); k < 50; k++ {
		if d := r.Route(tuple.New(k, nil)); d != 0 {
			t.Fatalf("nd=1 routed to %d", d)
		}
	}
}

// TestLocalEstimatesMatchOneSender pins the property Nasir et al.'s
// algorithm rests on: senders route on local load estimates and never
// coordinate, yet k of them balance as well as one. One Zipf stream
// (10⁵ keys, 10⁶ tuples) is dealt to k = 2, 4 and 8 routers in
// 1 024-tuple chunks; the imbalance of the instances' combined loads
// (max/mean − 1) stays within localMargin of one router's on the same
// stream. The largest gap over these cases is 0.0009 (z = 1.01,
// nd = 20, k = 8); the margin leaves three times that.
func TestLocalEstimatesMatchOneSender(t *testing.T) {
	const keys, tuples, chunk, localMargin = 100_000, 1_000_000, 1024, 0.003
	stream := make([]tuple.Tuple, tuples)
	for _, z := range []float64{1.01, 1.5, 2.0} {
		workload.NewZipfStream(keys, z, 0, 0, 1).NextBatch(stream)
		for _, nd := range []int{5, 10, 20} {
			one := imbalance(dealt(stream, nd, 1, chunk))
			for _, k := range []int{2, 4, 8} {
				gap := imbalance(dealt(stream, nd, k, chunk)) - one
				t.Logf("z %.2f nd %2d k %d: one sender %.4f, gap %+.4f", z, nd, k, one, gap)
				if gap > localMargin {
					t.Errorf("z %.2f nd %d: %d senders' imbalance is %.4f above one sender's %.4f", z, nd, k, gap, one)
				}
			}
		}
	}
}

// dealt routes ts through k routers over nd instances, chunk c to
// router c mod k, and returns the instances' combined loads.
func dealt(ts []tuple.Tuple, nd, k, chunk int) []int64 {
	rs := make([]*Router, k)
	for i := range rs {
		rs[i] = NewRouter(nd)
	}
	dst := make([]int, chunk)
	for c, lo := 0, 0; lo < len(ts); c, lo = c+1, lo+chunk {
		rs[c%k].DestTuples(ts[lo:min(lo+chunk, len(ts))], dst)
	}
	total := make([]int64, nd)
	for _, r := range rs {
		for d, l := range r.loads {
			total[d] += l
		}
	}
	return total
}

// imbalance is max/mean − 1 over loads.
func imbalance(loads []int64) float64 {
	var hi, sum int64
	for _, l := range loads {
		hi = max(hi, l)
		sum += l
	}
	return float64(hi)*float64(len(loads))/float64(sum) - 1
}
