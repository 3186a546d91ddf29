package hashring

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func TestHashInRange(t *testing.T) {
	r := New(10, 0)
	f := func(k uint64) bool {
		d := r.Hash(tuple.Key(k))
		return d >= 0 && d < 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashDeterministic(t *testing.T) {
	a, b := New(7, 0), New(7, 0)
	for k := tuple.Key(0); k < 1000; k++ {
		if a.Hash(k) != b.Hash(k) {
			t.Fatalf("rings disagree on key %d", k)
		}
	}
}

func TestBalanceAcrossInstances(t *testing.T) {
	// With many uniform keys, per-instance ownership should be within
	// a reasonable band of the average.
	const nd, keys = 8, 100000
	r := New(nd, 0)
	counts := make([]int, nd)
	for k := 0; k < keys; k++ {
		counts[r.Hash(tuple.Key(k))]++
	}
	avg := keys / nd
	for d, c := range counts {
		if c < avg/2 || c > avg*2 {
			t.Fatalf("instance %d owns %d keys, avg %d: ring too unbalanced", d, c, avg)
		}
	}
}

func TestGrowMovesOnlyFraction(t *testing.T) {
	// Consistent hashing's defining property: adding one instance moves
	// roughly 1/(n+1) of the keys, far from a full reshuffle.
	const keys = 50000
	old := New(10, 0)
	grown := old.Grow()
	if grown.Instances() != 11 {
		t.Fatalf("Grow gave %d instances, want 11", grown.Instances())
	}
	moved := 0
	for k := 0; k < keys; k++ {
		if old.Hash(tuple.Key(k)) != grown.Hash(tuple.Key(k)) {
			moved++
		}
	}
	frac := float64(moved) / keys
	if frac > 0.2 {
		t.Fatalf("Grow moved %.1f%% of keys; consistent hashing should move ~%.1f%%",
			100*frac, 100.0/11)
	}
	if moved == 0 {
		t.Fatal("Grow moved no keys at all")
	}
	// Keys that moved must have moved to the new instance.
	for k := 0; k < keys; k++ {
		o, g := old.Hash(tuple.Key(k)), grown.Hash(tuple.Key(k))
		if o != g && g != 10 {
			t.Fatalf("key %d moved %d→%d, but only instance 10 is new", k, o, g)
		}
	}
}

func TestSingleInstance(t *testing.T) {
	r := New(1, 0)
	for k := tuple.Key(0); k < 100; k++ {
		if r.Hash(k) != 0 {
			t.Fatal("single-instance ring must map everything to 0")
		}
	}
}

func TestNewPanicsOnZeroInstances(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, _) did not panic")
		}
	}()
	New(0, 0)
}

func TestLUTMatchesBinarySearch(t *testing.T) {
	// The LUT is an acceleration structure only: for every key, and for
	// hash positions on and beside every ring point — where bucket
	// boundaries and the forward scan matter most — it must return
	// exactly what the binary search over the ring would. Grown and
	// shrunk rings rebuild theirs, so they are checked too.
	check := func(name string, r *Ring) {
		for k := tuple.Key(0); k < 20000; k++ {
			if got, want := r.Hash(k), r.searchHash(mix(uint64(k))); got != want {
				t.Fatalf("%s: key %d: LUT hash %d ≠ search %d", name, k, got, want)
			}
		}
		for _, p := range r.points {
			for _, h := range []uint64{p.hash - 1, p.hash, p.hash + 1} {
				if got, want := r.Owner(h), r.searchHash(h); got != want {
					t.Fatalf("%s: hash %#x: LUT %d ≠ search %d", name, h, got, want)
				}
			}
		}
		for _, h := range []uint64{0, 1, 1<<63 - 1, 1 << 63, ^uint64(0)} {
			if got, want := r.Owner(h), r.searchHash(h); got != want {
				t.Fatalf("%s: hash %#x: LUT %d ≠ search %d", name, h, got, want)
			}
		}
	}
	for _, nd := range []int{1, 2, 3, 4, 8, 10, 64} {
		r := New(nd, 0)
		check(fmt.Sprintf("nd=%d", nd), r)
		check(fmt.Sprintf("nd=%d grown", nd), r.Grow())
		if nd > 1 {
			check(fmt.Sprintf("nd=%d shrunk", nd), r.Shrink())
		}
	}
	// A ring coarser than its LUT's cap packs several points per bucket.
	check("crowded", New(1<<(maxLUTBits-6), 0))
}

func TestLUTSizedToRing(t *testing.T) {
	r := New(10, 0)
	if len(r.lut) < len(r.points) {
		t.Fatalf("LUT %d entries for %d points: too coarse to be useful", len(r.lut), len(r.points))
	}
	if len(r.lut)&(len(r.lut)-1) != 0 {
		t.Fatalf("LUT size %d is not a power of two", len(r.lut))
	}
	if len(r.lut) > 1<<maxLUTBits {
		t.Fatalf("LUT size %d exceeds cap", len(r.lut))
	}
}

func TestCustomReplicas(t *testing.T) {
	r := New(3, 16)
	if r.replicas != 16 {
		t.Fatalf("replicas = %d, want 16", r.replicas)
	}
	if len(r.points) != 3*16 {
		t.Fatalf("points = %d, want 48", len(r.points))
	}
}

func TestHashBatchFormsMatchHash(t *testing.T) {
	r := New(7, 0)
	const n = 5000
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i].Key = tuple.Key(i * 31)
	}
	got := make([]int, n)
	r.HashTuples(ts, got)
	for i := range ts {
		if want := r.Hash(ts[i].Key); got[i] != want {
			t.Fatalf("HashTuples[%d] = %d, want %d", i, got[i], want)
		}
	}
}

// searchHash is the exact ring lookup, kept as the reference the LUT is
// tested against: binary search for the first point with hash ≥ h,
// wrapping.
func (r *Ring) searchHash(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].inst
}
