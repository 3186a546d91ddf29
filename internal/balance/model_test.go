package balance

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// modelSnapshot draws a snapshot built to provoke every tie-break and
// every corner the planners branch on: few distinct costs (ties in the
// candidate order and in ψ), zero costs and zero memories, a share of
// routed keys, and sometimes one instance holding most of the load so
// that exchange cascades run.
func modelSnapshot(rng *rand.Rand, nd, nk int) *stats.Snapshot {
	s := &stats.Snapshot{ND: nd}
	costs := 1 + rng.Intn(6)
	mems := 1 + rng.Intn(5)
	pile := rng.Intn(3) == 0
	for i := 0; i < nk; i++ {
		cost := int64(rng.Intn(costs + 1))
		if rng.Intn(12) == 0 {
			cost = int64(10 + rng.Intn(90))
		}
		hash := rng.Intn(nd)
		dest := hash
		if rng.Intn(3) == 0 {
			dest = rng.Intn(nd)
		}
		if pile && rng.Intn(2) == 0 {
			dest = 0
		}
		s.Keys = append(s.Keys, stats.KeyStat{
			Key: tuple.Key(rng.Intn(1 << 20)), Cost: cost, Freq: cost,
			Mem: int64(rng.Intn(mems + 1)), Dest: dest, Hash: hash,
		})
	}
	// Keys must be unique for ψ to be total.
	seen := map[tuple.Key]bool{}
	uniq := s.Keys[:0]
	for _, ks := range s.Keys {
		if !seen[ks.Key] {
			seen[ks.Key] = true
			uniq = append(uniq, ks)
		}
	}
	s.Keys = uniq
	stats.SortByCostDesc(s.Keys)
	return s
}

func tableOf(t *route.Table) map[tuple.Key]int {
	m := map[tuple.Key]int{}
	for _, k := range t.Keys() {
		m[k], _ = t.Lookup(k)
	}
	return m
}

// samePlan compares everything a Plan reports except the clock.
func samePlan(got, want *Plan) error {
	switch {
	case got.Algorithm != want.Algorithm:
		return fmt.Errorf("algorithm %q, reference %q", got.Algorithm, want.Algorithm)
	case !reflect.DeepEqual(tableOf(got.Table), tableOf(want.Table)):
		return fmt.Errorf("table %v, reference %v", tableOf(got.Table), tableOf(want.Table))
	case !reflect.DeepEqual(got.Moved, want.Moved):
		return fmt.Errorf("moved %v, reference %v", got.Moved, want.Moved)
	case !reflect.DeepEqual(got.MoveDest, want.MoveDest):
		return fmt.Errorf("move destinations %v, reference %v", got.MoveDest, want.MoveDest)
	case got.MigrationCost != want.MigrationCost:
		return fmt.Errorf("migration cost %d, reference %d", got.MigrationCost, want.MigrationCost)
	case !reflect.DeepEqual(got.Loads, want.Loads):
		return fmt.Errorf("loads %v, reference %v", got.Loads, want.Loads)
	case got.MaxTheta != want.MaxTheta || got.OverloadTheta != want.OverloadTheta:
		return fmt.Errorf("θ %v/%v, reference %v/%v", got.MaxTheta, got.OverloadTheta, want.MaxTheta, want.OverloadTheta)
	case got.Feasible != want.Feasible:
		return fmt.Errorf("feasible %v, reference %v", got.Feasible, want.Feasible)
	}
	return nil
}

// TestPlannersMatchReference pins every planner to the reference
// planner (reference_test.go) on the whole Plan, over random snapshots
// planned back to back: the recycled state of one plan must not show in
// the next, whatever planner, size or instance count ran before it.
func TestPlannersMatchReference(t *testing.T) {
	planners := []Planner{
		Simple{},
		LLFD{}, LLFD{NoAdjust: true}, LLFD{Psi: ByGamma}, LLFD{Psi: ByGamma, NoAdjust: true},
		MinTable{}, MinMig{},
		Mixed{}, Mixed{Clean: CleanLargestMem}, Mixed{Clean: CleanByKey},
		MixedBF{}, MixedBF{MaxTrials: 5},
	}
	retried, exhausted := 0, 0
	check := func(trial int, snap *stats.Snapshot, cfg Config) {
		t.Helper()
		before := append([]stats.KeyStat(nil), snap.Keys...)
		if _, trials, out := refMixed(snap, cfg, CleanSmallestMem); trials > 1 {
			retried++ // Mixed's first trial overflows: it must clean and retry
			if out {
				exhausted++ // and it overflows on every trial
			}
		}
		for _, p := range planners {
			got, want := p.Plan(snap, cfg), refPlan(p, snap, cfg)
			if err := samePlan(got, want); err != nil {
				t.Fatalf("trial %d, %s %+v on %d keys × %d instances, %+v: %v",
					trial, p.Name(), p, len(snap.Keys), snap.ND, cfg, err)
			}
		}
		if !reflect.DeepEqual(before, snap.Keys) {
			t.Fatalf("trial %d: a planner wrote to the snapshot", trial)
		}
	}
	// Trial −1 overflows Amax by one entry on every one of Mixed's
	// trials: each cleaned entry sends a unit back to the hash instance,
	// and θmax = 0 makes the planner route a unit away again.
	check(-1, exhaustingSnapshot(), Config{ThetaMax: 0, TableMax: 99, Beta: 1})
	if exhausted != 1 {
		t.Fatalf("the exhausting snapshot ended Mixed's loop before its %d trials", MixedTrials)
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 400; trial++ {
		nd := 1 + rng.Intn(16)
		snap := modelSnapshot(rng, nd, rng.Intn(400))
		cfg := Config{
			ThetaMax: float64(rng.Intn(30)) / 100,
			TableMax: rng.Intn(3) * (1 + rng.Intn(40)),
			Beta:     []float64{0.5, 1, 1.5, 2}[rng.Intn(4)],
		}
		check(trial, snap, cfg)
	}
	if retried < 20 {
		t.Fatalf("only %d snapshots made Mixed retry; the trial loop is barely covered", retried)
	}
}

// exhaustingSnapshot is two instances at equal load: 100 keys of cost 1
// routed from their hash instance 0 to instance 1, and 100 more of cost
// 1 on instance 0, all with hash 0.
func exhaustingSnapshot() *stats.Snapshot {
	s := &stats.Snapshot{ND: 2}
	for i := range 200 {
		ks := stats.KeyStat{Key: tuple.Key(i), Cost: 1, Freq: 1, Mem: 2}
		if i < 100 {
			ks.Dest, ks.Mem = 1, 1
		}
		s.Keys = append(s.Keys, ks)
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

// TestPlanOutlivesRecycledState pins that a Plan aliases nothing the
// pool recycles: planning again, on a different snapshot, leaves an
// earlier plan untouched.
func TestPlanOutlivesRecycledState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cfg := Config{ThetaMax: 0.02, TableMax: 10, Beta: 1.5}
	first := modelSnapshot(rng, 6, 300)
	plan := Mixed{}.Plan(first, cfg)
	want := refPlan(Mixed{}, first, cfg)
	for i := 0; i < 5; i++ {
		Mixed{}.Plan(modelSnapshot(rng, 1+rng.Intn(9), 500), cfg)
	}
	if err := samePlan(plan, want); err != nil {
		t.Fatalf("an earlier plan changed under later planning: %v", err)
	}
}

// steadySnapshot is the benchmark's control-round shape: nk keys on
// their hash destinations, most of cost 1–4 with a few hot ones, so a
// plan moves a handful of keys out of a large population.
func steadySnapshot(seed int64, nd, nk int) *stats.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &stats.Snapshot{ND: nd}
	for i := 0; i < nk; i++ {
		cost := int64(1 + rng.Intn(4))
		if rng.Intn(200) == 0 {
			cost = int64(50 + rng.Intn(100))
		}
		d := rng.Intn(nd)
		s.Keys = append(s.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: cost, Freq: cost, Mem: cost * int64(1+rng.Intn(5)), Dest: d, Hash: d,
		})
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the average heap
// bytes f allocates per call.
func allocBytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSteadyPlanningAllocatesNoPopulation is the planner's share of the
// control round's allocation budget: at the benchmark's shape (11k
// keys re-drawn per plan, 8 instances) a plan allocates its own small
// result and nothing sized by the population.
func TestSteadyPlanningAllocatesNoPopulation(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const nk, nd, rounds = 11000, 8, 4
	snaps := make([]*stats.Snapshot, rounds)
	moved := 0
	cfg := DefaultConfig()
	for i := range snaps {
		snaps[i] = steadySnapshot(int64(i), nd, nk)
		moved += len(Mixed{}.Plan(snaps[i], cfg).Moved) // and grow the pooled state
	}
	if moved == 0 {
		t.Fatal("no snapshot needed a move; the plans are vacuous")
	}
	i := 0
	plan := func() {
		Mixed{}.Plan(snaps[i%rounds], cfg)
		i++
	}
	bytes, allocs := allocBytesPerRun(20, plan), testing.AllocsPerRun(20, plan)
	population := float64(nk) * float64(unsafe.Sizeof(stats.KeyStat{}))
	t.Logf("%.0f B in %.0f allocations per plan (population %.0f B, %d keys moved over %d plans)",
		bytes, allocs, population, moved, rounds)
	if bytes > population/16 {
		t.Fatalf("a steady-state plan allocates %.0f B; the population is %.0f B", bytes, population)
	}
}

// TestConcurrentPlannersShareThePool plans from several goroutines at
// once, as the policy servers of a multi-stage topology do: each takes
// its own state from the shared pool, so every plan still equals the
// reference's. Run under -race in CI.
func TestConcurrentPlannersShareThePool(t *testing.T) {
	const workers, rounds = 4, 25
	cfg := Config{ThetaMax: 0.03, TableMax: 20, Beta: 1.5}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				snap := modelSnapshot(rng, 1+rng.Intn(12), 50+rng.Intn(400))
				for _, p := range []Planner{Mixed{}, MinTable{}, MixedBF{MaxTrials: 4}} {
					if err := samePlan(p.Plan(snap, cfg), refPlan(p, snap, cfg)); err != nil {
						t.Errorf("worker %d round %d, %s: %v", w, i, p.Name(), err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentPlannersWithDifferentBeta runs Mixed planners with two
// different β at once: each plan state memoizes c^β for the β it was
// loaded with, so a state one planner returns to the pool and another
// takes must not carry the first one's powers into the second's plan.
// Every concurrent plan must equal the same plan made serially. Costs
// reach past the memo's bound, so both ways of computing c^β run. Run
// under -race in CI.
func TestConcurrentPlannersWithDifferentBeta(t *testing.T) {
	const rounds = 30
	betas := []float64{0.5, 2.5}
	rng := rand.New(rand.NewSource(7))
	snaps := make([]*stats.Snapshot, rounds)
	for i := range snaps {
		s := modelSnapshot(rng, 2+rng.Intn(10), 50+rng.Intn(400))
		for j := range s.Keys {
			if j%5 == 0 {
				s.Keys[j].Cost *= 30
			}
		}
		stats.SortByCostDesc(s.Keys)
		snaps[i] = s
	}
	cfgs := make([]Config, len(betas))
	serial := make([][]*Plan, len(betas))
	for b, beta := range betas {
		cfgs[b] = Config{ThetaMax: 0.03, TableMax: 40, Beta: beta}
		for _, s := range snaps {
			serial[b] = append(serial[b], Mixed{}.Plan(s, cfgs[b]))
		}
	}
	var wg sync.WaitGroup
	for b := range betas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range snaps {
				if err := samePlan(Mixed{}.Plan(s, cfgs[b]), serial[b][i]); err != nil {
					t.Errorf("β=%v snapshot %d: %v", betas[b], i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
