package balance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tuple"
)

// Direct tests of the LLFD machinery: the candidate heap, the
// exchangeable-set conditions, forced placement, and the ablation knobs.

func stateFor(t *testing.T, snap *stats.Snapshot, cfg Config) *planState {
	t.Helper()
	st := new(planState)
	st.load(NewProblem(snap, cfg))
	st.index()
	return st
}

// idxOf returns the snapshot index of key k.
func idxOf(t *testing.T, st *planState, k tuple.Key) int32 {
	t.Helper()
	for i := range st.keys {
		if st.keys[i].Key == k {
			return int32(i)
		}
	}
	t.Fatalf("key %d not in snapshot", k)
	return -1
}

func TestCostHeapPopsDescending(t *testing.T) {
	f := func(costs []uint16) bool {
		if len(costs) == 0 {
			return true
		}
		snap := &stats.Snapshot{ND: 1}
		for i, c := range costs {
			snap.Keys = append(snap.Keys, stats.KeyStat{Key: tuple.Key(i), Cost: int64(c) + 1})
		}
		st := stateFor(t, snap, Config{ThetaMax: 0, Beta: 1})
		for i := range st.keys {
			st.disassociate(int32(i))
		}
		last := int64(1 << 30)
		for len(st.cand) > 0 {
			i := st.popCand()
			if st.keys[i].Cost > last {
				return false
			}
			last = st.keys[i].Cost
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDisassociateUpdatesLoads(t *testing.T) {
	snap := mk(2, [5]int64{1, 7, 7, 0, 0}, [5]int64{2, 3, 3, 0, 0})
	st := stateFor(t, snap, Config{ThetaMax: 0, Beta: 1})
	if st.loads[0] != 10 {
		t.Fatalf("initial load %d", st.loads[0])
	}
	k1 := idxOf(t, st, 1)
	st.disassociate(k1)
	if st.loads[0] != 3 {
		t.Fatalf("load after disassociate = %d, want 3", st.loads[0])
	}
	if st.cur[k1] != -1 {
		t.Fatal("disassociated key still has a destination")
	}
	// Double disassociate is a no-op.
	st.disassociate(k1)
	if st.loads[0] != 3 {
		t.Fatal("double disassociate changed loads")
	}
}

func TestExchangeSetConditions(t *testing.T) {
	// d0 carries keys of cost 6, 3, 2 (L=11); placing a cost-5 key with
	// Lmax = 12 needs to displace ≥ 4 cost units using only keys
	// cheaper than 5 → {3, 2} (ψ = cost order picks 3 first, then 2).
	snap := mk(2,
		[5]int64{1, 6, 6, 0, 0},
		[5]int64{2, 3, 3, 0, 0},
		[5]int64{3, 2, 2, 0, 0},
		[5]int64{4, 5, 5, 1, 1}, // the arriving key, parked on d1
		[5]int64{5, 8, 8, 1, 1},
	)
	st := stateFor(t, snap, Config{ThetaMax: 0, Beta: 1})
	st.lmax = 12
	e, ok := st.exchangeSet(idxOf(t, st, 4), 0, ByCost)
	if !ok || len(e) == 0 {
		t.Fatal("no exchangeable set found")
	}
	var sum int64
	for _, j := range e {
		if c := st.keys[j].Cost; c >= 5 {
			t.Fatalf("condition (ii) violated: member cost %d ≥ 5", c)
		}
		if st.cur[j] != 0 {
			t.Fatalf("condition (i) violated: member on instance %d", st.cur[j])
		}
		sum += st.keys[j].Cost
	}
	if sum != 5 {
		t.Fatalf("ψ = cost order must take exactly {3, 2}, took cost %d", sum)
	}
	if float64(st.loads[0])+5-float64(sum) > st.lmax {
		t.Fatal("condition (iii) violated: instance still overloaded")
	}
}

func TestExchangeSetImpossible(t *testing.T) {
	// All keys on d0 are ≥ the arriving cost: condition (ii) leaves no
	// candidates, so the set must be nil.
	snap := mk(2,
		[5]int64{1, 9, 9, 0, 0},
		[5]int64{2, 9, 9, 0, 0},
		[5]int64{3, 2, 2, 1, 1},
	)
	st := stateFor(t, snap, Config{ThetaMax: 0, Beta: 1})
	st.lmax = 10
	if e, ok := st.exchangeSet(idxOf(t, st, 3), 0, ByCost); ok {
		t.Fatalf("found impossible exchange set %v", e)
	}
}

func TestForceAssignFallsBackToLeastLoaded(t *testing.T) {
	// A key bigger than Lmax fits nowhere; LLFD must still terminate
	// with a total assignment on the least-loaded instance.
	snap := mk(2,
		[5]int64{1, 100, 100, 0, 0},
		[5]int64{2, 10, 10, 1, 1},
	)
	plan := LLFD{}.Plan(snap, Config{ThetaMax: 0, Beta: 1})
	total := plan.Loads[0] + plan.Loads[1]
	if total != 110 {
		t.Fatalf("assignment lost cost: loads %v", plan.Loads)
	}
}

func TestNoAdjustDegradesBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var worse int
	const trials = 30
	for i := 0; i < trials; i++ {
		snap := perfectSnapshot(rng, 4, 120)
		cfg := Config{ThetaMax: 0, Beta: 1}
		with := LLFD{}.Plan(snap, cfg)
		without := LLFD{NoAdjust: true}.Plan(snap, cfg)
		if without.OverloadTheta > with.OverloadTheta {
			worse++
		}
		if with.OverloadTheta > without.OverloadTheta+1e-9 {
			// Adjust should never hurt; tolerate exact ties.
			t.Fatalf("trial %d: Adjust made balance worse (%v vs %v)",
				i, with.OverloadTheta, without.OverloadTheta)
		}
	}
	if worse == 0 {
		t.Fatal("NoAdjust never degraded balance across 30 trials; ablation is vacuous")
	}
}

func TestPrepareShedsOnlyOverloaded(t *testing.T) {
	snap := mk(2,
		[5]int64{1, 10, 10, 0, 0},
		[5]int64{2, 10, 10, 0, 0},
		[5]int64{3, 10, 10, 1, 1},
	)
	st := stateFor(t, snap, Config{ThetaMax: 0.2, Beta: 1})
	// L̄ = 15, Lmax = 18: d0 (20) overloaded, d1 (10) not.
	st.prepare(ByCost)
	if len(st.cand) == 0 {
		t.Fatal("prepare shed nothing from the overloaded instance")
	}
	for _, i := range st.cand {
		if st.keys[i].Dest != 0 {
			t.Fatalf("prepare shed key %d from non-overloaded instance", st.keys[i].Key)
		}
	}
}

func TestInstancesByLoadOrdering(t *testing.T) {
	snap := mk(3,
		[5]int64{1, 30, 30, 0, 0},
		[5]int64{2, 10, 10, 1, 1},
		[5]int64{3, 20, 20, 2, 2},
	)
	st := stateFor(t, snap, Config{ThetaMax: 0, Beta: 1})
	order := st.instancesByLoad()
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("instancesByLoad = %v, want [1 2 0]", order)
	}
}

func TestInstKeysCompactsStaleEntries(t *testing.T) {
	snap := mk(2, [5]int64{1, 5, 5, 0, 0}, [5]int64{2, 5, 5, 0, 0})
	st := stateFor(t, snap, Config{ThetaMax: 0, Beta: 1})
	st.disassociate(idxOf(t, st, 1))
	live := st.instKeys(0)
	if len(live) != 1 || st.keys[live[0]].Key != 2 {
		t.Fatalf("instKeys = %v, want just key 2", live)
	}
}

func TestCleanPoliciesOrderRoutedKeys(t *testing.T) {
	snap := mk(2,
		[5]int64{1, 5, 9, 0, 1},
		[5]int64{2, 5, 3, 1, 0},
		[5]int64{3, 5, 6, 0, 1},
	)
	small := routedOrderBy(nil, snap.Keys, CleanSmallestMem)
	if snap.Keys[small[0]].Mem != 3 || snap.Keys[small[2]].Mem != 9 {
		t.Fatal("CleanSmallestMem not ascending")
	}
	large := routedOrderBy(nil, snap.Keys, CleanLargestMem)
	if snap.Keys[large[0]].Mem != 9 || snap.Keys[large[2]].Mem != 3 {
		t.Fatal("CleanLargestMem not descending")
	}
	byKey := routedOrderBy(nil, snap.Keys, CleanByKey)
	for i := 1; i < len(byKey); i++ {
		if snap.Keys[byKey[i-1]].Key >= snap.Keys[byKey[i]].Key {
			t.Fatal("CleanByKey not key-ordered")
		}
	}
}

func TestCriterionLess(t *testing.T) {
	// β = 1: γ = c/S, so the keys' γ are 2, 7 and 7.
	snap := &stats.Snapshot{ND: 1, Keys: []stats.KeyStat{
		{Key: 1, Cost: 10, Mem: 5},
		{Key: 2, Cost: 7, Mem: 1},
		{Key: 3, Cost: 14, Mem: 2},
	}}
	st := stateFor(t, snap, Config{Beta: 1})
	const a, b, c = 0, 1, 2
	if !st.less(ByCost, a, b) {
		t.Fatal("ByCost must prefer the costlier key")
	}
	if !st.less(ByGamma, b, a) {
		t.Fatal("ByGamma must prefer the higher-γ key")
	}
	// γ tie falls through to cost.
	if !st.less(ByGamma, c, b) {
		t.Fatal("γ tie must break by cost")
	}
	if st.less(ByGamma, a, a) {
		t.Fatal("less must be irreflexive")
	}
}

func TestMixedBFStrideQuantization(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	snap := randomSnapshot(rng, 4, 500)
	cfg := Config{ThetaMax: 0.1, TableMax: 400, Beta: 1.5}
	full := MixedBF{}.Plan(snap, cfg)
	quant := MixedBF{MaxTrials: 8}.Plan(snap, cfg)
	// Quantized search explores a subset, so it can't beat the full
	// sweep, but it must still return a valid plan.
	if quant.MigrationCost < full.MigrationCost {
		t.Fatalf("quantized BF (%d) beat exhaustive BF (%d)", quant.MigrationCost, full.MigrationCost)
	}
	checkConsistency(t, snap, quant)
}

func TestEmptySnapshotPlansAreEmpty(t *testing.T) {
	snap := &stats.Snapshot{ND: 3}
	for _, p := range []Planner{Simple{}, LLFD{}, MinTable{}, MinMig{}, Mixed{}, MixedBF{}} {
		plan := p.Plan(snap, Config{ThetaMax: 0.1, Beta: 1.5})
		if len(plan.Moved) != 0 || plan.TableSize() != 0 {
			t.Fatalf("%s produced work from an empty snapshot", p.Name())
		}
	}
}

func TestZeroCostKeysDoNotBreakPlanning(t *testing.T) {
	snap := mk(2,
		[5]int64{1, 0, 5, 0, 0},
		[5]int64{2, 10, 5, 0, 0},
		[5]int64{3, 0, 5, 1, 1},
	)
	plan := Mixed{}.Plan(snap, Config{ThetaMax: 0.1, Beta: 1.5})
	checkConsistency(t, snap, plan)
}
