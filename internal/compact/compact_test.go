package compact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func TestRepresentativesPaperExample(t *testing.T) {
	// §IV-B worked example: r = 2, R = 4, max = 8 → y = 8, 4, 2, 1.
	reps := Representatives(8, 4)
	want := []int64{8, 4, 2, 1}
	if len(reps) != len(want) {
		t.Fatalf("reps = %v, want %v", reps, want)
	}
	for i := range want {
		if reps[i] != want[i] {
			t.Fatalf("reps = %v, want %v", reps, want)
		}
	}
}

func TestRepresentativesStrictlyDecreasing(t *testing.T) {
	f := func(max uint16, rExp uint8) bool {
		R := int64(1) << (rExp % 9)
		reps := Representatives(int64(max)+1, R)
		for i := 1; i < len(reps); i++ {
			if reps[i-1] <= reps[i] {
				return false
			}
		}
		return len(reps) > 0 && reps[len(reps)-1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscretizerPaperExampleZeroDeviation(t *testing.T) {
	// Fig. 6(b): costs 8,6,3,2,2,1,1,1,1,1 with R=4 discretize with
	// per-step deviations 0,2,−1,0,0,−1,0,0,0,0 and total δ = 0.
	xs := []int64{8, 6, 3, 2, 2, 1, 1, 1, 1, 1}
	d := NewDiscretizer(8, 4)
	wantPhi := []int64{8, 4, 4, 2, 2, 2, 1, 1, 1, 1}
	for i, x := range xs {
		if got := d.Map(x); got != wantPhi[i] {
			t.Fatalf("φ(x%d=%d) = %d, want %d (δ so far %d)", i+1, x, got, wantPhi[i], d.delta)
		}
	}
	if d.delta != 0 {
		t.Fatalf("total deviation = %d, want 0 (Theorem 3)", d.delta)
	}
}

func TestDiscretizerDeviationStaysBounded(t *testing.T) {
	// Theorem 3 in practice: |δ| never exceeds the largest gap between
	// consecutive representatives, because each choice cancels.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 100 + rng.Intn(400)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(1 + rng.Intn(200))
		}
		// Non-increasing order as the contract requires.
		sortDesc(xs)
		R := int64(1) << rng.Intn(6)
		d := NewDiscretizer(xs[0], R)
		maxGap := int64(0)
		reps := d.reps
		for i := 1; i < len(reps); i++ {
			if g := reps[i-1] - reps[i]; g > maxGap {
				maxGap = g
			}
		}
		for _, x := range xs {
			d.Map(x)
			if d.delta > maxGap || d.delta < -maxGap {
				t.Fatalf("trial %d: |δ| = %d exceeds max representative gap %d", trial, d.delta, maxGap)
			}
		}
	}
}

func sortDesc(xs []int64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestDiscretizeAllAlignment(t *testing.T) {
	xs := []int64{3, 8, 1, 6}
	out := DiscretizeAll(xs, 4)
	if len(out) != len(xs) {
		t.Fatalf("output length %d, want %d", len(out), len(xs))
	}
	// The largest value maps to the top representative exactly.
	if out[1] != 8 {
		t.Fatalf("φ(8) = %d, want 8", out[1])
	}
}

func TestDiscretizeAllREqualsOneIsNearExact(t *testing.T) {
	// R = 1 gives representatives max, max−1, …, 1: every integer is
	// its own representative, so φ is the identity.
	xs := []int64{5, 4, 3, 2, 1, 9, 7}
	out := DiscretizeAll(xs, 1)
	for i := range xs {
		if out[i] != xs[i] {
			t.Fatalf("R=1: φ(%d) = %d, want identity", xs[i], out[i])
		}
	}
}

func mkSnap(nd int, rows ...[5]int64) *stats.Snapshot {
	s := &stats.Snapshot{ND: nd}
	for _, r := range rows {
		s.Keys = append(s.Keys, stats.KeyStat{
			Key: tuple.Key(r[0]), Cost: r[1], Freq: r[1], Mem: r[2],
			Dest: int(r[3]), Hash: int(r[4]),
		})
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

func TestBuildGroupsEqualKeys(t *testing.T) {
	// Two keys with identical (dest, hash, cost, mem) fold into one
	// vector with Count 2 — the paper's (d1,d2,d1,4,4,2) example.
	snap := mkSnap(3,
		[5]int64{1, 4, 4, 1, 0},
		[5]int64{2, 4, 4, 1, 0},
		[5]int64{3, 4, 4, 2, 0},
	)
	sp := Build(snap, 1)
	if len(sp.Vectors) != 2 {
		t.Fatalf("|Kc| = %d, want 2", len(sp.Vectors))
	}
	var found bool
	for _, v := range sp.Vectors {
		if v.Cur == 1 && v.Hash == 0 && v.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("merged vector (d1, d0-hash, count 2) not found")
	}
}

func TestSpaceShrinksWithLargerR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	snap := &stats.Snapshot{ND: 4}
	for i := 0; i < 2000; i++ {
		c := int64(1 + rng.Intn(300))
		snap.Keys = append(snap.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: c, Mem: int64(1 + rng.Intn(100)),
			Dest: rng.Intn(4), Hash: rng.Intn(4),
		})
	}
	stats.SortByCostDesc(snap.Keys)
	s1 := len(Build(snap, 1).Vectors)
	s8 := len(Build(snap, 8).Vectors)
	s64 := len(Build(snap, 64).Vectors)
	if !(s64 <= s8 && s8 <= s1) {
		t.Fatalf("|Kc| not shrinking with R: R1=%d R8=%d R64=%d", s1, s8, s64)
	}
	if s64 >= s1 {
		t.Fatalf("coarse discretization did not compress: R1=%d R64=%d", s1, s64)
	}
}

func TestLoadEstimationErrorSmall(t *testing.T) {
	// Fig. 11(b): errors stay under ~1% even at R = 256 thanks to the
	// deviation-cancelling discretizer.
	rng := rand.New(rand.NewSource(4))
	snap := &stats.Snapshot{ND: 10}
	for i := 0; i < 20000; i++ {
		c := int64(1 + rng.Intn(100))
		snap.Keys = append(snap.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: c, Mem: c,
			Dest: rng.Intn(10), Hash: rng.Intn(10),
		})
	}
	stats.SortByCostDesc(snap.Keys)
	for _, R := range []int64{1, 8} {
		sp := Build(snap, R)
		if err := sp.LoadEstimationError(); err > 1.0 {
			t.Fatalf("R=%d: load estimation error %.3f%% exceeds 1%%", R, err)
		}
	}
	// Coarser degrees trade accuracy for speed; the error must stay
	// small (a few percent) and grow monotonically in expectation.
	for _, R := range []int64{64, 256} {
		sp := Build(snap, R)
		if err := sp.LoadEstimationError(); err > 3.0 {
			t.Fatalf("R=%d: load estimation error %.3f%% exceeds 3%%", R, err)
		}
	}
}

func TestCompactPlannerConsistencyAndBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		nd := 2 + rng.Intn(6)
		snap := &stats.Snapshot{ND: nd}
		for i := 0; i < 500; i++ {
			c := int64(1 + rng.Intn(40))
			hash := rng.Intn(nd)
			dest := hash
			if rng.Intn(5) == 0 {
				dest = rng.Intn(nd)
			}
			if c > 20 && rng.Intn(2) == 0 {
				dest = 0 // skew
			}
			snap.Keys = append(snap.Keys, stats.KeyStat{
				Key: tuple.Key(i), Cost: c, Mem: c, Dest: dest, Hash: hash,
			})
		}
		stats.SortByCostDesc(snap.Keys)
		cfg := balance.Config{ThetaMax: 0.08, TableMax: 400, Beta: 1.5}
		plan := Planner{R: 4}.Plan(snap, cfg)
		checkPlan(t, snap, plan)
		// The plan is computed on discretized loads; true-load overload
		// may exceed θmax slightly, bounded by the estimation error.
		if plan.OverloadTheta > cfg.ThetaMax+0.05 {
			t.Fatalf("trial %d: compact plan overload θ = %v far above θmax", trial, plan.OverloadTheta)
		}
	}
}

func checkPlan(t *testing.T, snap *stats.Snapshot, plan *balance.Plan) {
	t.Helper()
	loads := make([]int64, snap.ND)
	var mig int64
	moved := make(map[tuple.Key]bool)
	for _, k := range plan.Moved {
		moved[k] = true
	}
	for _, ks := range snap.Keys {
		d := ks.Hash
		if td, ok := plan.Table.Lookup(ks.Key); ok {
			d = td
		}
		loads[d] += ks.Cost
		if d != ks.Dest {
			if !moved[ks.Key] {
				t.Fatalf("key %d moved %d→%d but absent from Moved", ks.Key, ks.Dest, d)
			}
			mig += ks.Mem
		}
	}
	if mig != plan.MigrationCost {
		t.Fatalf("MigrationCost = %d, recomputed %d", plan.MigrationCost, mig)
	}
	for d := range loads {
		if loads[d] != plan.Loads[d] {
			t.Fatalf("Loads[%d] = %d, recomputed %d", d, plan.Loads[d], loads[d])
		}
	}
}

func TestCompactPlannerFasterSpaceThanKeys(t *testing.T) {
	// The whole point of §IV: |Kc| ≪ |K| on realistic snapshots.
	rng := rand.New(rand.NewSource(66))
	snap := &stats.Snapshot{ND: 10}
	for i := 0; i < 50000; i++ {
		c := int64(1 + rng.Intn(50))
		snap.Keys = append(snap.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: c, Mem: c, Dest: rng.Intn(10), Hash: rng.Intn(10),
		})
	}
	stats.SortByCostDesc(snap.Keys)
	sp := Build(snap, 8)
	if len(sp.Vectors) > len(snap.Keys)/10 {
		t.Fatalf("|Kc| = %d not ≪ |K| = %d", len(sp.Vectors), len(snap.Keys))
	}
}
