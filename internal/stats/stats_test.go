package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func TestThetaDefinition(t *testing.T) {
	// θ(d) = |L(d) − L̄| / L̄ per §II-A.
	loads := []int64{16, 4} // L̄ = 10
	th := Theta(loads)
	if math.Abs(th[0]-0.6) > 1e-12 || math.Abs(th[1]-0.6) > 1e-12 {
		t.Fatalf("Theta = %v, want [0.6 0.6]", th)
	}
	if got := MaxTheta(loads); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("MaxTheta = %v, want 0.6", got)
	}
}

func TestThetaZeroLoads(t *testing.T) {
	th := Theta([]int64{0, 0, 0})
	for _, v := range th {
		if v != 0 {
			t.Fatalf("Theta on zero loads = %v, want zeros", th)
		}
	}
}

func TestOverloadThetaOneSided(t *testing.T) {
	// One instance at 0, three at 4: L̄=3, max overload (4−3)/3 = 1/3,
	// even though the empty instance's two-sided θ is 1.
	loads := []int64{0, 4, 4, 4}
	if got := OverloadTheta(loads); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("OverloadTheta = %v, want 1/3", got)
	}
	if got := MaxTheta(loads); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("MaxTheta = %v, want 1", got)
	}
}

func TestSkewness(t *testing.T) {
	if got := Skewness([]int64{20, 10, 10}); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("Skewness = %v, want 1.5", got)
	}
	if got := Skewness([]int64{5, 5}); got != 1 {
		t.Fatalf("balanced Skewness = %v, want 1", got)
	}
	if got := Skewness(nil); got != 1 {
		t.Fatalf("empty Skewness = %v, want 1", got)
	}
}

func TestSkewnessAtLeastOne(t *testing.T) {
	f := func(a, b, c uint16) bool {
		loads := []int64{int64(a), int64(b), int64(c)}
		return Skewness(loads) >= 1 || (a == 0 && b == 0 && c == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotLoadsAndTotals(t *testing.T) {
	s := &Snapshot{ND: 3, Keys: []KeyStat{
		{Key: 1, Cost: 5, Mem: 2, Dest: 0},
		{Key: 2, Cost: 3, Mem: 4, Dest: 0},
		{Key: 3, Cost: 7, Mem: 1, Dest: 2},
	}}
	loads := s.Loads()
	if loads[0] != 8 || loads[1] != 0 || loads[2] != 7 {
		t.Fatalf("Loads = %v", loads)
	}
	if s.TotalCost() != 15 || s.TotalMem() != 7 {
		t.Fatalf("totals = %d/%d, want 15/7", s.TotalCost(), s.TotalMem())
	}
}

func TestSnapshotClone(t *testing.T) {
	s := &Snapshot{ND: 2, Keys: []KeyStat{{Key: 1, Cost: 5}}}
	c := s.Clone()
	c.Keys[0].Cost = 99
	if s.Keys[0].Cost != 5 {
		t.Fatal("Clone shares key slice")
	}
}

func TestSortByCostDesc(t *testing.T) {
	ks := []KeyStat{{Key: 1, Cost: 2}, {Key: 3, Cost: 9}, {Key: 2, Cost: 9}}
	SortByCostDesc(ks)
	if ks[0].Cost != 9 || ks[1].Cost != 9 || ks[2].Cost != 2 {
		t.Fatalf("not cost-descending: %v", ks)
	}
	if ks[0].Key != 2 { // tie broken by ascending key
		t.Fatalf("tie-break wrong: %v", ks)
	}
}

func TestRouted(t *testing.T) {
	if (KeyStat{Dest: 1, Hash: 1}).Routed() {
		t.Fatal("Dest == Hash reported as routed")
	}
	if !(KeyStat{Dest: 2, Hash: 1}).Routed() {
		t.Fatal("Dest ≠ Hash not reported as routed")
	}
}

// --- Tracker ---------------------------------------------------------

// byKey indexes a close's run by key.
func byKey(run []KeyStat) map[tuple.Key]KeyStat {
	m := make(map[tuple.Key]KeyStat, len(run))
	for _, ks := range run {
		m[ks.Key] = ks
	}
	return m
}

func TestTrackerAccumulatesInterval(t *testing.T) {
	tr := NewTracker(1)
	observe(tr, 1, 3, 2)
	observe(tr, 1, 2, 1)
	observe(tr, 2, 1, 1)
	out := byKey(tr.EndInterval())
	if ks := out[1]; ks.Cost != 5 || ks.Freq != 2 || ks.Mem != 3 {
		t.Fatalf("key 1 stats = %+v, want cost 5, freq 2, mem 3", ks)
	}
	if ks := out[2]; ks.Cost != 1 || ks.Freq != 1 || ks.Mem != 1 {
		t.Fatalf("key 2 stats = %+v", ks)
	}
}

func TestTrackerWindowedMemory(t *testing.T) {
	// w = 3: S(k, 3) sums the last three finished intervals.
	tr := NewTracker(3)
	for i := 0; i < 5; i++ {
		observe(tr, 7, 1, 10)
		out := byKey(tr.EndInterval())
		want := int64(10 * (i + 1))
		if want > 30 {
			want = 30
		}
		if got := out[7].Mem; got != want {
			t.Fatalf("interval %d: S(k,3) = %d, want %d", i, got, want)
		}
	}
}

func TestTrackerWindowEviction(t *testing.T) {
	tr := NewTracker(2)
	observe(tr, 1, 1, 5)
	tr.EndInterval()
	tr.EndInterval() // key 1 idle
	if got := tr.Keys(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after 1 idle interval Keys = %v, want [1] (still in window)", got)
	}
	tr.EndInterval() // now evicted
	if got := tr.Keys(); len(got) != 0 {
		t.Fatalf("after 2 idle intervals Keys = %v, want none", got)
	}
	if got := takeKey(tr, 1); got != 0 {
		t.Fatalf("after 2 idle intervals S = %d, want 0", got)
	}
}

func TestTrackerDropAndAdopt(t *testing.T) {
	src, dst := NewTracker(2), NewTracker(2)
	observe(src, 9, 4, 7)
	src.EndInterval()
	dst.EndInterval() // keep clocks aligned
	mem := takeKey(src, 9)
	dst.AdoptKey(9, mem)
	if got := src.Keys(); len(got) != 0 {
		t.Fatalf("source still lists %v after the move", got)
	}
	if got := takeKey(dst, 9); got != 7 {
		t.Fatalf("destination adopted %d, want 7", got)
	}
}

func TestTrackerAdoptBeforeFirstInterval(t *testing.T) {
	tr := NewTracker(2)
	tr.AdoptKey(3, 11)
	out := byKey(tr.EndInterval())
	if got := out[3].Mem; got != 11 {
		t.Fatalf("adopted-before-first-interval mem = %d, want 11", got)
	}
}

func TestTrackerWindowClamp(t *testing.T) {
	for _, w := range []int{0, -3} {
		tr := NewTracker(w)
		observe(tr, 1, 1, 5)
		if got := byKey(tr.EndInterval())[1].Mem; got != 5 {
			t.Fatalf("window %d: S = %d after the key's own close, want 5", w, got)
		}
		tr.EndInterval()
		if got := tr.Keys(); len(got) != 0 {
			t.Fatalf("window %d not clamped to 1: Keys = %v after an idle close", w, got)
		}
	}
}
