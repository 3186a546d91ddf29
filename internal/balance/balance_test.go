package balance

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/tuple"
)

// mk builds a snapshot from (key, cost, mem, dest, hash) rows.
func mk(nd int, rows ...[5]int64) *stats.Snapshot {
	s := &stats.Snapshot{ND: nd}
	for _, r := range rows {
		s.Keys = append(s.Keys, stats.KeyStat{
			Key:  tuple.Key(r[0]),
			Cost: r[1],
			Freq: r[1],
			Mem:  r[2],
			Dest: int(r[3]),
			Hash: int(r[4]),
		})
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

// paperExample is the running example of Fig. 4: d1 owns k1,k2,k5 with
// costs 7,4,5 (L=16); d2 owns k3,k4,k6 with costs 2,1,1 (L=4). The
// original routing table is {(k3,d2),(k5,d1)}, so h(k3)=d1... wait —
// in the figure the table routes k3 to d2 and k5 to d1, with their hash
// homes being the opposite instances.
func paperExample() *stats.Snapshot {
	return mk(2,
		[5]int64{1, 7, 7, 0, 0}, // k1 on d1
		[5]int64{2, 4, 4, 0, 0}, // k2 on d1
		[5]int64{5, 5, 5, 0, 1}, // k5 on d1 via routing entry (hash d2)
		[5]int64{3, 2, 2, 1, 0}, // k3 on d2 via routing entry (hash d1)
		[5]int64{4, 1, 1, 1, 1}, // k4 on d2
		[5]int64{6, 1, 1, 1, 1}, // k6 on d2
	)
}

func cfg0() Config { return Config{ThetaMax: 0, TableMax: 0, Beta: 1} }

func TestLLFDPaperExampleReachesPerfectBalance(t *testing.T) {
	plan := LLFD{}.Plan(paperExample(), cfg0())
	if plan.Loads[0] != 10 || plan.Loads[1] != 10 {
		t.Fatalf("LLFD loads = %v, want [10 10]", plan.Loads)
	}
	if plan.MaxTheta != 0 {
		t.Fatalf("MaxTheta = %v, want 0", plan.MaxTheta)
	}
}

func TestMinTablePaperExampleBalancesWithSmallTable(t *testing.T) {
	snap := paperExample()
	pLLFD := LLFD{}.Plan(snap, cfg0())
	pMT := MinTable{}.Plan(snap, cfg0())
	if pMT.Loads[0] != 10 || pMT.Loads[1] != 10 {
		t.Fatalf("MinTable loads = %v, want [10 10]", pMT.Loads)
	}
	if pMT.TableSize() > pLLFD.TableSize() {
		t.Fatalf("MinTable table %d entries > LLFD table %d entries; cleaning should shrink it",
			pMT.TableSize(), pLLFD.TableSize())
	}
	if pMT.TableSize() > 2 {
		t.Fatalf("MinTable table = %d entries, want ≤ 2 as in Fig. 4", pMT.TableSize())
	}
}

func TestSimpleBalancesPaperExample(t *testing.T) {
	plan := Simple{}.Plan(paperExample(), cfg0())
	if plan.Loads[0] != 10 || plan.Loads[1] != 10 {
		t.Fatalf("Simple loads = %v, want [10 10]", plan.Loads)
	}
}

// Every planner must produce an internally consistent plan: loads
// recomputed from the final assignment match, migration accounting
// matches the moved set, and table entries are exactly the hash
// exceptions.
func TestPlanInternalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planners := []Planner{Simple{}, LLFD{}, MinTable{}, MinMig{}, Mixed{}, MixedBF{}}
	for trial := 0; trial < 40; trial++ {
		snap := randomSnapshot(rng, 2+rng.Intn(8), 20+rng.Intn(200))
		cfg := Config{ThetaMax: float64(rng.Intn(20)) / 100, TableMax: 1 + rng.Intn(50), Beta: 1.5}
		for _, p := range planners {
			plan := p.Plan(snap, cfg)
			checkConsistency(t, snap, plan)
		}
	}
}

func checkConsistency(t *testing.T, snap *stats.Snapshot, plan *Plan) {
	t.Helper()
	// Final destination per key.
	loads := make([]int64, snap.ND)
	var mig int64
	movedSet := make(map[tuple.Key]bool, len(plan.Moved))
	for _, k := range plan.Moved {
		movedSet[k] = true
	}
	tableCount := 0
	for _, ks := range snap.Keys {
		d := ks.Hash
		if td, ok := plan.Table.Lookup(ks.Key); ok {
			d = td
			tableCount++
		}
		loads[d] += ks.Cost
		if d != ks.Dest {
			if !movedSet[ks.Key] {
				t.Fatalf("%s: key %d changed dest %d→%d but is not in Moved", plan.Algorithm, ks.Key, ks.Dest, d)
			}
			if plan.MoveDest[ks.Key] != d {
				t.Fatalf("%s: MoveDest[%d] = %d, final dest %d", plan.Algorithm, ks.Key, plan.MoveDest[ks.Key], d)
			}
			mig += ks.Mem
		} else if movedSet[ks.Key] {
			t.Fatalf("%s: key %d in Moved but destination unchanged", plan.Algorithm, ks.Key)
		}
	}
	if tableCount != plan.Table.Len() {
		t.Fatalf("%s: table has %d entries but only %d match snapshot keys", plan.Algorithm, plan.Table.Len(), tableCount)
	}
	if mig != plan.MigrationCost {
		t.Fatalf("%s: MigrationCost = %d, recomputed %d", plan.Algorithm, plan.MigrationCost, mig)
	}
	for d := range loads {
		if loads[d] != plan.Loads[d] {
			t.Fatalf("%s: Loads[%d] = %d, recomputed %d", plan.Algorithm, d, plan.Loads[d], loads[d])
		}
	}
	if got := stats.MaxTheta(loads); absF(got-plan.MaxTheta) > 1e-9 {
		t.Fatalf("%s: MaxTheta = %v, recomputed %v", plan.Algorithm, plan.MaxTheta, got)
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// randomSnapshot draws keys with Zipf-ish costs, random mems, random
// current and hash destinations (so routing tables are non-trivially
// populated).
func randomSnapshot(rng *rand.Rand, nd, nk int) *stats.Snapshot {
	s := &stats.Snapshot{ND: nd}
	for i := 0; i < nk; i++ {
		cost := int64(1 + rng.Intn(100)/(1+rng.Intn(10)))
		s.Keys = append(s.Keys, stats.KeyStat{
			Key:  tuple.Key(i),
			Cost: cost,
			Freq: cost,
			Mem:  int64(1 + rng.Intn(30)),
			Dest: rng.Intn(nd),
			Hash: rng.Intn(nd),
		})
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

// perfectSnapshot builds an instance admitting a perfect assignment:
// each of nd instances gets keys exactly summing to per-instance load
// L, every key strictly below L; then destinations are scrambled.
func perfectSnapshot(rng *rand.Rand, nd int, L int64) *stats.Snapshot {
	s := &stats.Snapshot{ND: nd}
	kid := 0
	for d := 0; d < nd; d++ {
		remaining := L
		for remaining > 0 {
			c := int64(1 + rng.Intn(int(L/2)))
			if c > remaining {
				c = remaining
			}
			// Keep every key strictly under L̄ (= L) as Theorem 1 requires.
			if c >= L {
				c = L - 1
			}
			s.Keys = append(s.Keys, stats.KeyStat{
				Key: tuple.Key(kid), Cost: c, Freq: c, Mem: c,
				Dest: rng.Intn(nd), Hash: rng.Intn(nd),
			})
			kid++
			remaining -= c
		}
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

// TestTheorem1LLFDBound checks Theorem 1: when a perfect assignment
// exists and c(k1) < L̄, LLFD's balance indicator is at most
// (1/3)(1 − 1/ND) for every instance.
func TestTheorem1LLFDBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		nd := 2 + rng.Intn(10)
		L := int64(60 + rng.Intn(200))
		snap := perfectSnapshot(rng, nd, L)
		plan := LLFD{}.Plan(snap, Config{ThetaMax: 0, Beta: 1})
		bound := (1.0 / 3.0) * (1 - 1/float64(nd))
		if plan.OverloadTheta > bound+1e-9 {
			t.Fatalf("trial %d: LLFD overload θ = %v exceeds Theorem 1 bound %v (nd=%d, L=%d)",
				trial, plan.OverloadTheta, bound, nd, L)
		}
	}
}

// TestTheorem2MixedMeetsSimpleBound checks Theorem 2's substance: the
// balance status Mixed generates satisfies the same (1/3)(1−1/ND)
// guarantee proved for Simple/LLFD, because Mixed's final phase runs
// LLFD over a search space at least as large. (The literal per-instance
// θMix ≤ θSim inequality does not survive heuristic tie-breaking; the
// paper's proof argues the bound, which is what we verify.)
func TestTheorem2MixedMeetsSimpleBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nd := 2 + rng.Intn(8)
		snap := perfectSnapshot(rng, nd, int64(60+rng.Intn(150)))
		cfg := Config{ThetaMax: 0, TableMax: 0, Beta: 1.5}
		pm := Mixed{}.Plan(snap, cfg)
		ps := Simple{}.Plan(snap, cfg)
		bound := (1.0 / 3.0) * (1 - 1/float64(nd))
		if pm.OverloadTheta > bound+1e-9 {
			t.Fatalf("trial %d: Mixed overload θ = %v exceeds bound %v (Simple: %v)",
				trial, pm.OverloadTheta, bound, ps.OverloadTheta)
		}
		if ps.OverloadTheta > bound+1e-9 {
			t.Fatalf("trial %d: Simple overload θ = %v exceeds bound %v", trial, ps.OverloadTheta, bound)
		}
	}
}

func TestMixedRespectsTableBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		nd := 2 + rng.Intn(6)
		snap := randomSnapshot(rng, nd, 100+rng.Intn(300))
		// A bound at least as large as MinTable's result is always
		// achievable, since Mixed degenerates to MinTable at n = NA.
		mt := MinTable{}.Plan(snap, Config{ThetaMax: 0.1, Beta: 1.5})
		cfg := Config{ThetaMax: 0.1, TableMax: mt.TableSize() + 5, Beta: 1.5}
		pm := Mixed{}.Plan(snap, cfg)
		if pm.TableSize() > cfg.TableMax {
			t.Fatalf("trial %d: Mixed table %d exceeds Amax %d (MinTable needs %d)",
				trial, pm.TableSize(), cfg.TableMax, mt.TableSize())
		}
	}
}

func TestMixedBFNeverWorseMigrationThanMixedWhenFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		nd := 2 + rng.Intn(6)
		snap := randomSnapshot(rng, nd, 80+rng.Intn(150))
		mt := MinTable{}.Plan(snap, Config{ThetaMax: 0.1, Beta: 1.5})
		cfg := Config{ThetaMax: 0.1, TableMax: mt.TableSize() + 10, Beta: 1.5}
		pm := Mixed{}.Plan(snap, cfg)
		pb := MixedBF{}.Plan(snap, cfg)
		if !pm.Feasible {
			continue
		}
		if pb.MigrationCost > pm.MigrationCost {
			t.Fatalf("trial %d: MixedBF migration %d > Mixed migration %d",
				trial, pb.MigrationCost, pm.MigrationCost)
		}
	}
}

func TestMinMigPrefersCheapStateOverMinTable(t *testing.T) {
	// Aggregate comparison over seeded trials: MinMig (no cleaning, γ
	// selection) should move less state than MinTable (full cleaning).
	rng := rand.New(rand.NewSource(3))
	var migMM, migMT int64
	for trial := 0; trial < 40; trial++ {
		snap := skewedSnapshot(rng, 5, 200, true)
		cfg := Config{ThetaMax: 0.08, Beta: 1.5}
		migMM += MinMig{}.Plan(snap, cfg).MigrationCost
		migMT += MinTable{}.Plan(snap, cfg).MigrationCost
	}
	if migMM >= migMT {
		t.Fatalf("aggregate MinMig migration %d not below MinTable %d", migMM, migMT)
	}
}

// skewedSnapshot concentrates load on instance 0 with Zipf-ish costs;
// when withTable is set, a fraction of keys carry routing entries.
func skewedSnapshot(rng *rand.Rand, nd, nk int, withTable bool) *stats.Snapshot {
	s := &stats.Snapshot{ND: nd}
	for i := 0; i < nk; i++ {
		cost := int64(1)
		if i < nk/10 {
			cost = int64(20 + rng.Intn(50))
		} else if i < nk/3 {
			cost = int64(2 + rng.Intn(8))
		}
		hash := rng.Intn(nd)
		dest := hash
		if withTable && rng.Intn(4) == 0 {
			dest = rng.Intn(nd)
		}
		// Skew: hot keys pile onto instance 0.
		if cost > 10 && rng.Intn(2) == 0 {
			dest = 0
		}
		s.Keys = append(s.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: cost, Freq: cost,
			Mem: cost * int64(1+rng.Intn(3)), Dest: dest, Hash: hash,
		})
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

func TestPlannersMeetThetaOnFeasibleSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		snap := skewedSnapshot(rng, 4, 400, true)
		cfg := Config{ThetaMax: 0.08, Beta: 1.5}
		for _, p := range []Planner{MinTable{}, MinMig{}, Mixed{}} {
			plan := p.Plan(snap, cfg)
			// With 400 keys and max key ≪ L̄ the bound is comfortably
			// achievable; planners must keep every instance under Lmax.
			if plan.OverloadTheta > cfg.ThetaMax+1e-9 {
				t.Fatalf("trial %d: %s overload θ = %v > θmax %v", trial, p.Name(), plan.OverloadTheta, cfg.ThetaMax)
			}
		}
	}
}

func TestPlannersAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	snap := randomSnapshot(rng, 6, 300)
	cfg := Config{ThetaMax: 0.05, TableMax: 100, Beta: 1.5}
	for _, p := range []Planner{Simple{}, LLFD{}, MinTable{}, MinMig{}, Mixed{}, MixedBF{}} {
		a := p.Plan(snap, cfg)
		b := p.Plan(snap, cfg)
		if a.MigrationCost != b.MigrationCost || a.TableSize() != b.TableSize() || a.MaxTheta != b.MaxTheta {
			t.Fatalf("%s: non-deterministic plans: (%d,%d,%v) vs (%d,%d,%v)",
				p.Name(), a.MigrationCost, a.TableSize(), a.MaxTheta,
				b.MigrationCost, b.TableSize(), b.MaxTheta)
		}
		if len(a.Moved) != len(b.Moved) {
			t.Fatalf("%s: moved sets differ in size", p.Name())
		}
		for i := range a.Moved {
			if a.Moved[i] != b.Moved[i] {
				t.Fatalf("%s: moved sets differ", p.Name())
			}
		}
	}
}

func TestBalancedSnapshotNeedsNoMigration(t *testing.T) {
	// Perfectly balanced input with no routing entries: MinMig and
	// Mixed must not move anything.
	snap := mk(2,
		[5]int64{1, 5, 5, 0, 0},
		[5]int64{2, 5, 5, 0, 0},
		[5]int64{3, 5, 5, 1, 1},
		[5]int64{4, 5, 5, 1, 1},
	)
	for _, p := range []Planner{MinMig{}, Mixed{}} {
		plan := p.Plan(snap, Config{ThetaMax: 0.08, Beta: 1.5})
		if len(plan.Moved) != 0 {
			t.Fatalf("%s moved %d keys on balanced input", p.Name(), len(plan.Moved))
		}
		if plan.MigrationCost != 0 {
			t.Fatalf("%s migration cost %d on balanced input", p.Name(), plan.MigrationCost)
		}
	}
}

func TestSingleInstanceIsTrivialllyBalanced(t *testing.T) {
	snap := mk(1, [5]int64{1, 7, 7, 0, 0}, [5]int64{2, 3, 3, 0, 0})
	for _, p := range []Planner{Simple{}, LLFD{}, MinTable{}, MinMig{}, Mixed{}, MixedBF{}} {
		plan := p.Plan(snap, Config{ThetaMax: 0, Beta: 1})
		if plan.MaxTheta != 0 {
			t.Fatalf("%s: θ = %v on single instance", p.Name(), plan.MaxTheta)
		}
		if plan.MigrationCost != 0 {
			t.Fatalf("%s: migration on single instance", p.Name())
		}
	}
}

func TestGammaOrderingUnderBeta(t *testing.T) {
	// β=1: γ = c/S → key with cost 4/mem 4 ties cost 7/mem 7.
	if g1, g2 := gamma(7, 7, 1), gamma(4, 4, 1); g1 != g2 {
		t.Fatalf("β=1: γ(7,7)=%v ≠ γ(4,4)=%v", g1, g2)
	}
	// β=0.5 favours the smaller key (paper's k2-vs-k1 example).
	if g1, g2 := gamma(7, 7, 0.5), gamma(4, 4, 0.5); g1 >= g2 {
		t.Fatalf("β=0.5: want γ(4,4) > γ(7,7), got %v vs %v", g2, g1)
	}
	// Larger β favours high-cost keys.
	if g1, g2 := gamma(7, 7, 2), gamma(4, 4, 2); g1 <= g2 {
		t.Fatalf("β=2: want γ(7,7) > γ(4,4), got %v vs %v", g1, g2)
	}
	// Zero mem is clamped, no division blow-up.
	if g := gamma(5, 0, 1.5); g <= 0 {
		t.Fatalf("γ with zero mem = %v, want positive", g)
	}
}

func TestLargerBetaShrinksRoutingTable(t *testing.T) {
	// Appendix Fig. 20: larger β → MinMig migrates big-load keys →
	// fewer routing entries accumulate. Compare after repeated
	// adjustments on a drifting skewed workload.
	sizes := map[float64]int{}
	for _, beta := range []float64{1.0, 2.0} {
		rng := rand.New(rand.NewSource(31))
		snap := skewedSnapshot(rng, 5, 400, false)
		cfg := Config{ThetaMax: 0.02, Beta: beta}
		var table int
		for round := 0; round < 8; round++ {
			plan := MinMig{}.Plan(snap, cfg)
			table = plan.TableSize()
			// Re-skew: apply plan dests, then push fresh hot keys to
			// instance 0.
			applyPlanToSnapshot(snap, plan)
			reskew(rng, snap)
		}
		sizes[beta] = table
	}
	if sizes[2.0] > sizes[1.0] {
		t.Fatalf("β=2 table %d > β=1 table %d; larger β should shrink the table", sizes[2.0], sizes[1.0])
	}
}

func applyPlanToSnapshot(snap *stats.Snapshot, plan *Plan) {
	for i := range snap.Keys {
		ks := &snap.Keys[i]
		if d, ok := plan.Table.Lookup(ks.Key); ok {
			ks.Dest = d
		} else {
			ks.Dest = ks.Hash
		}
	}
}

func reskew(rng *rand.Rand, snap *stats.Snapshot) {
	for i := range snap.Keys {
		ks := &snap.Keys[i]
		if rng.Intn(10) == 0 {
			ks.Cost = int64(10 + rng.Intn(60))
			ks.Mem = ks.Cost
		}
	}
	stats.SortByCostDesc(snap.Keys)
}

func TestMigrationPct(t *testing.T) {
	p := &Plan{MigrationCost: 25}
	if got := p.MigrationPct(100); got != 25 {
		t.Fatalf("MigrationPct = %v, want 25", got)
	}
	if got := p.MigrationPct(0); got != 0 {
		t.Fatalf("MigrationPct with zero total = %v, want 0", got)
	}
}

func TestRoutedOrderSortsBySmallestMemory(t *testing.T) {
	snap := mk(2,
		[5]int64{1, 5, 9, 0, 1}, // routed, mem 9
		[5]int64{2, 5, 3, 1, 0}, // routed, mem 3
		[5]int64{3, 5, 1, 0, 0}, // not routed
	)
	idx := routedOrderBy(nil, snap.Keys, CleanSmallestMem)
	if len(idx) != 2 {
		t.Fatalf("routedOrder found %d entries, want 2", len(idx))
	}
	if snap.Keys[idx[0]].Mem != 3 || snap.Keys[idx[1]].Mem != 9 {
		t.Fatalf("routedOrder not ascending by memory: %v, %v", snap.Keys[idx[0]].Mem, snap.Keys[idx[1]].Mem)
	}
}

// DefaultConfig mirrors the bold defaults of Tab. II.
func DefaultConfig() Config {
	return Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5}
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	c := DefaultConfig()
	if c.ThetaMax != 0.08 || c.TableMax != 3000 || c.Beta != 1.5 {
		t.Fatalf("DefaultConfig = %+v, want θmax=0.08, Amax=3000, β=1.5", c)
	}
}
