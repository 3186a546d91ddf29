package readj

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func mk(nd int, rows ...[5]int64) *stats.Snapshot {
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

func TestReadjBalancesUniformHotKeys(t *testing.T) {
	// Readj's sweet spot: near-uniform key weights. Six keys of cost
	// 10, four on d0 and two on d1 → a single move fixes it.
	snap := mk(2,
		[5]int64{1, 10, 10, 0, 0},
		[5]int64{2, 10, 10, 0, 0},
		[5]int64{3, 10, 10, 0, 0},
		[5]int64{4, 10, 10, 0, 0},
		[5]int64{5, 10, 10, 1, 1},
		[5]int64{6, 10, 10, 1, 1},
	)
	plan := Planner{Sigma: 0.1}.Plan(snap, balance.Config{ThetaMax: 0, Beta: 1})
	if plan.Loads[0] != 30 || plan.Loads[1] != 30 {
		t.Fatalf("Readj loads = %v, want [30 30]", plan.Loads)
	}
	if len(plan.Moved) != 1 {
		t.Fatalf("Readj moved %d keys, one move suffices", len(plan.Moved))
	}
}

func TestReadjMovesBackFirst(t *testing.T) {
	// A routed key whose hash home has room must return home (Readj's
	// restore bias), shrinking the table.
	snap := mk(2,
		[5]int64{1, 5, 5, 0, 1}, // routed to d0, hash home d1
		[5]int64{2, 5, 5, 0, 0},
		[5]int64{3, 5, 5, 1, 1},
	)
	plan := Planner{Sigma: 0.1}.Plan(snap, balance.Config{ThetaMax: 0.5, Beta: 1})
	if _, ok := plan.Table.Lookup(1); ok {
		t.Fatalf("key 1 still routed; Readj should move it back (table %d)", plan.Table.Len())
	}
}

func TestReadjFailsOnSkewedGranularity(t *testing.T) {
	// The paper's critique: when key weights vary wildly, move/swap over
	// hot keys cannot reach tight balance. One cost-90 key + many
	// cost-1 keys on two instances: perfect balance needs fine-grained
	// redistribution Readj won't find with a high σ.
	rows := [][5]int64{{1, 90, 90, 0, 0}}
	for i := int64(2); i < 32; i++ {
		rows = append(rows, [5]int64{i, 1, 1, 0, 0})
	}
	snap := mk(2, rows...)
	cfg := balance.Config{ThetaMax: 0.02, Beta: 1}
	plan := Planner{Sigma: 0.5}.Plan(snap, cfg)
	if plan.OverloadTheta <= cfg.ThetaMax+1e-9 {
		t.Fatalf("Readj(σ=0.5) claimed feasibility on pathological granularity (θ=%v)", plan.OverloadTheta)
	}
}

func TestReadjConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		nd := 2 + rng.Intn(6)
		snap := &stats.Snapshot{ND: nd}
		for i := 0; i < 150; i++ {
			c := int64(1 + rng.Intn(40))
			hash := rng.Intn(nd)
			dest := hash
			if rng.Intn(4) == 0 {
				dest = rng.Intn(nd)
			}
			snap.Keys = append(snap.Keys, stats.KeyStat{
				Key: tuple.Key(i), Cost: c, Mem: c, Dest: dest, Hash: hash,
			})
		}
		stats.SortByCostDesc(snap.Keys)
		plan := Planner{Sigma: 0.05}.Plan(snap, balance.Config{ThetaMax: 0.1, Beta: 1})

		loads := make([]int64, nd)
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
					t.Fatalf("trial %d: key %d moved but not reported", trial, ks.Key)
				}
				mig += ks.Mem
			}
		}
		if mig != plan.MigrationCost {
			t.Fatalf("trial %d: migration %d, recomputed %d", trial, plan.MigrationCost, mig)
		}
		for d := range loads {
			if loads[d] != plan.Loads[d] {
				t.Fatalf("trial %d: loads mismatch at %d", trial, d)
			}
		}
	}
}

func TestTunePicksBestSigma(t *testing.T) {
	// With mixed granularity, small σ must beat large σ; Tune should
	// return a plan at least as balanced as any single σ run.
	rows := [][5]int64{{1, 50, 50, 0, 0}, {2, 30, 30, 0, 0}}
	for i := int64(3); i < 43; i++ {
		rows = append(rows, [5]int64{i, 2, 2, 0, 0})
	}
	snap := mk(2, rows...)
	cfg := balance.Config{ThetaMax: 0.05, Beta: 1}
	best := Tune(snap, cfg, nil)
	coarse := Planner{Sigma: 0.5}.Plan(snap, cfg)
	if best.MaxTheta > coarse.MaxTheta+1e-9 {
		t.Fatalf("Tune θ=%v worse than σ=0.5 θ=%v", best.MaxTheta, coarse.MaxTheta)
	}
}

func TestReadjDeterministic(t *testing.T) {
	snap := mk(3,
		[5]int64{1, 20, 20, 0, 0}, [5]int64{2, 15, 15, 0, 0},
		[5]int64{3, 10, 10, 1, 1}, [5]int64{4, 5, 5, 2, 2},
	)
	cfg := balance.Config{ThetaMax: 0.05, Beta: 1}
	a := Planner{Sigma: 0.1}.Plan(snap, cfg)
	b := Planner{Sigma: 0.1}.Plan(snap, cfg)
	if a.MigrationCost != b.MigrationCost || a.MaxTheta != b.MaxTheta {
		t.Fatal("Readj non-deterministic")
	}
}
