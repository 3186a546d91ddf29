package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// TestTrackerMatchesReferenceModel drives a Tracker and the map-based
// reference through the same random history — batches, split fold-backs,
// migrations out (state.Dir.Move) and in (AdoptKey), including keys
// that leave and come back inside one window — and requires every
// observable to agree: S(k, w) of every key moved out, Keys, and each
// close's run, which must also come out in KeyStatLess order.
func TestTrackerMatchesReferenceModel(t *testing.T) {
	const keys = 40
	for _, w := range []int{1, 3, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*101 + int64(w)))
			tr, ref := NewTracker(w), newRefTracker(w)
			for interval := 0; interval < 60; interval++ {
				at := fmt.Sprintf("w=%d seed=%d interval=%d", w, seed, interval)
				for op, ops := 0, rng.Intn(30); op < ops; op++ {
					k := tuple.Key(rng.Intn(keys))
					switch r := rng.Intn(12); {
					case r < 6:
						ts := make([]tuple.Tuple, 1+rng.Intn(40))
						for i := range ts {
							ts[i] = tuple.Tuple{Key: tuple.Key(rng.Intn(keys)), Cost: int64(rng.Intn(4)), StateSize: int64(rng.Intn(6))}
						}
						tr.ObserveBatch(ts)
						ref.ObserveBatch(ts)
					case r < 8:
						c, f, m := int64(rng.Intn(20)), int64(rng.Intn(5)), int64(rng.Intn(30))
						tr.AbsorbKey(k, c, f, m)
						ref.AbsorbKey(k, c, f, m)
					case r < 10:
						if a, b := takeKey(tr, k), ref.WindowedMem(k); a != b {
							t.Fatalf("%s: moved %d out with S = %d, reference %d", at, k, a, b)
						}
						ref.DropKey(k)
					default:
						m := int64(1 + rng.Intn(50))
						tr.AdoptKey(k, m)
						ref.AdoptKey(k, m)
					}
				}
				if a, b := tr.Keys(), ref.Keys(); !slices.Equal(a, b) {
					t.Fatalf("%s: Keys = %v, reference %v", at, a, b)
				}
				run, want := tr.EndInterval(), ref.EndInterval()
				if len(run) != len(want) {
					t.Fatalf("%s: close reports %d keys, reference %d", at, len(run), len(want))
				}
				for i, ks := range run {
					if ks != want[ks.Key] {
						t.Fatalf("%s: run[%d] = %+v, reference %+v", at, i, ks, want[ks.Key])
					}
					if i > 0 && !KeyStatLess(run[i-1], ks) {
						t.Fatalf("%s: run[%d] = %+v does not follow %+v", at, i, ks, run[i-1])
					}
				}
			}
		}
	}
}

// TestSortCostKeys pins the radix order to KeyStatLess over the whole
// value range: negative and extreme costs, keys that differ in every
// byte, and runs short enough to take no pass at all.
func TestSortCostKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	costs := []int64{math.MinInt64, -1 << 40, -1, 0, 1, 2, 255, 256, 1 << 33, math.MaxInt64}
	for _, n := range []int{0, 1, 2, 17, 300, 5000} {
		seen := map[tuple.Key]bool{}
		want := make([]KeyStat, 0, n)
		for len(want) < n {
			k := tuple.Key(rng.Uint64())
			if n == 300 {
				k &= 0xffff // dense small keys: most bytes constant
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			c := costs[rng.Intn(len(costs))]
			if rng.Intn(2) == 0 {
				c = int64(rng.Intn(5))
			}
			want = append(want, KeyStat{Key: k, Cost: c})
		}
		recs := make([]costKey, n)
		for i, ks := range want {
			recs[i] = newCostKey(ks.Cost, uint64(ks.Key), i)
		}
		sorted, spare := sortCostKeys(recs, nil)
		if len(sorted) != n || len(spare) != n {
			t.Fatalf("n=%d: sorted %d, spare %d records", n, len(sorted), len(spare))
		}
		got := make([]KeyStat, n)
		for i, r := range sorted {
			got[i] = want[r.cell]
		}
		refSortByCostDesc(want)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix order differs from KeyStatLess", n)
		}
	}
}

// TestSteadyStateCloseAllocatesNothing: with a stable key set, a whole
// interval — batched observation, then the close that rolls the window
// and reports the touched keys — allocates nothing once the table, the
// window slabs and the run have grown to size.
func TestSteadyStateCloseAllocatesNothing(t *testing.T) {
	ts := make([]tuple.Tuple, 4096)
	for i := range ts {
		ts[i] = tuple.New(tuple.Key(uint64(i)*2654435761%700), nil)
	}
	for _, w := range []int{1, 5} {
		tr := NewTracker(w)
		interval := func() {
			for lo := 0; lo < len(ts); lo += 256 {
				tr.ObserveBatch(ts[lo : lo+256])
			}
			tr.EndInterval()
		}
		for i := 0; i < 4*(w+1); i++ {
			interval()
		}
		if n := testing.AllocsPerRun(50, interval); n != 0 {
			t.Fatalf("w=%d: %v allocations per steady-state interval, want 0", w, n)
		}
	}
}
