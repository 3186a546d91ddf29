package compact

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// White-box tests of the vector-granularity planning machinery.

func vplanFixture(nd int, rows ...[5]int64) (*Space, *vplan) {
	snap := mkSnap(nd, rows...)
	sp := Build(snap, 1)
	vp := newVplan(sp, balance.Config{ThetaMax: 0, Beta: 1})
	return sp, vp
}

func TestMoveUnitsSplitsVectors(t *testing.T) {
	// Three identical keys on d0, all routed (hash d1): moving 2 back
	// must split the unit.
	_, vp := vplanFixture(2,
		[5]int64{1, 4, 4, 0, 1},
		[5]int64{2, 4, 4, 0, 1},
		[5]int64{3, 4, 4, 0, 1},
	)
	if len(vp.units) != 1 || vp.units[0].count != 3 {
		t.Fatalf("fixture grouped wrong: %d units", len(vp.units))
	}
	vp.moveUnits(vp.units[0], 1, 2)
	if len(vp.units) != 2 {
		t.Fatalf("split produced %d units, want 2", len(vp.units))
	}
	if vp.loads[0] != 4 || vp.loads[1] != 8 {
		t.Fatalf("loads after split = %v, want [4 8]", vp.loads)
	}
}

func TestMoveUnitsWholeVector(t *testing.T) {
	_, vp := vplanFixture(2, [5]int64{1, 4, 4, 0, 1}, [5]int64{2, 4, 4, 0, 1})
	vp.moveUnits(vp.units[0], 1, 99) // take > count moves everything
	if len(vp.units) != 1 || vp.units[0].dest != 1 {
		t.Fatalf("whole-vector move failed: %+v", vp.units[0])
	}
	if vp.loads[0] != 0 || vp.loads[1] != 8 {
		t.Fatalf("loads = %v", vp.loads)
	}
}

func TestDetachPartial(t *testing.T) {
	_, vp := vplanFixture(2,
		[5]int64{1, 4, 4, 0, 0},
		[5]int64{2, 4, 4, 0, 0},
	)
	vp.detach(vp.units[0], 1)
	if len(vp.cand) != 1 || vp.cand[0].count != 1 || vp.cand[0].dest != -1 {
		t.Fatalf("detach wrong: %+v", vp.cand)
	}
	if vp.loads[0] != 4 {
		t.Fatalf("load after detach = %d", vp.loads[0])
	}
}

func TestAssignAllSplitsAcrossInstances(t *testing.T) {
	// Four unit-cost keys detached with Lmax = 2 per instance: the
	// block must split 2/2.
	_, vp := vplanFixture(2,
		[5]int64{1, 1, 1, 0, 0},
		[5]int64{2, 1, 1, 0, 0},
		[5]int64{3, 1, 1, 0, 0},
		[5]int64{4, 1, 1, 0, 0},
	)
	vp.detach(vp.units[0], 4)
	vp.lmax = 2
	vp.assignAll()
	if vp.loads[0] != 2 || vp.loads[1] != 2 {
		t.Fatalf("assignAll loads = %v, want [2 2]", vp.loads)
	}
}

func TestMaterializePrefersStayingPut(t *testing.T) {
	// Vector of 4 keys on d0; plan keeps 2 on d0 and sends 2 to d1:
	// exactly 2 keys may appear in Moved.
	snap := mkSnap(2,
		[5]int64{1, 1, 3, 0, 0},
		[5]int64{2, 1, 3, 0, 0},
		[5]int64{3, 1, 3, 0, 0},
		[5]int64{4, 1, 3, 0, 0},
	)
	sp := Build(snap, 1)
	vp := newVplan(sp, balance.Config{ThetaMax: 0, Beta: 1})
	vp.detach(vp.units[0], 4)
	vp.lmax = 2
	vp.assignAll()
	plan := materialize(sp, vp, balance.Config{ThetaMax: 0, Beta: 1})
	if len(plan.Moved) != 2 {
		t.Fatalf("moved %d keys, want 2 (stay-preference)", len(plan.Moved))
	}
	if plan.MigrationCost != 6 {
		t.Fatalf("migration cost %d, want 2 keys × mem 3", plan.MigrationCost)
	}
}

func TestCompactPlannerHonorsTableBoundViaCleaning(t *testing.T) {
	// Many routed keys and a tight bound: the clean loop must shrink
	// the final table to ≤ Amax even if it costs migration.
	rng := rand.New(rand.NewSource(31))
	snap := &stats.Snapshot{ND: 4}
	for i := 0; i < 400; i++ {
		hash := rng.Intn(4)
		dest := (hash + 1) % 4 // every key routed
		snap.Keys = append(snap.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: int64(1 + rng.Intn(5)), Mem: int64(1 + rng.Intn(5)),
			Dest: dest, Hash: hash,
		})
	}
	stats.SortByCostDesc(snap.Keys)
	cfg := balance.Config{ThetaMax: 0.5, TableMax: 40, Beta: 1.5}
	plan := Planner{R: 2}.Plan(snap, cfg)
	if plan.Table.Len() > cfg.TableMax {
		t.Fatalf("compact plan table %d exceeds bound %d", plan.Table.Len(), cfg.TableMax)
	}
	checkPlan(t, snap, plan)
}

func TestCompactPlannerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	snap := &stats.Snapshot{ND: 3}
	for i := 0; i < 300; i++ {
		snap.Keys = append(snap.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: int64(1 + rng.Intn(20)), Mem: int64(1 + rng.Intn(20)),
			Dest: rng.Intn(3), Hash: rng.Intn(3),
		})
	}
	stats.SortByCostDesc(snap.Keys)
	cfg := balance.Config{ThetaMax: 0.1, TableMax: 100, Beta: 1.5}
	a := Planner{R: 4}.Plan(snap, cfg)
	b := Planner{R: 4}.Plan(snap, cfg)
	if a.MigrationCost != b.MigrationCost || a.TableSize() != b.TableSize() {
		t.Fatal("compact planner non-deterministic")
	}
}

func TestNaiveDiscretizeNearest(t *testing.T) {
	// reps for max 8, R 4: [8 4 2 1]; nearest mapping with ties to lo.
	out := NaiveDiscretize([]int64{8, 6, 3, 2, 1, 5}, 4)
	want := []int64{8, 4, 2, 2, 1, 4}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("NaiveDiscretize = %v, want %v", out, want)
		}
	}
}

func TestNaiveDiscretizeWorseDeviationThanHolistic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	xs := make([]int64, 5000)
	for i := range xs {
		xs[i] = int64(1 + rng.Intn(50))
	}
	naive := NaiveDiscretize(xs, 8)
	hol := DiscretizeAll(xs, 8)
	var dn, dh int64
	for i := range xs {
		dn += xs[i] - naive[i]
		dh += xs[i] - hol[i]
	}
	if dn < 0 {
		dn = -dn
	}
	if dh < 0 {
		dh = -dh
	}
	if dh > dn {
		t.Fatalf("holistic |δ|=%d worse than naive |δ|=%d", dh, dn)
	}
}
