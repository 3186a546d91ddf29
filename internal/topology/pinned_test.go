package topology_test

import (
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// TestPlannersHonourPinnedLoad pins the planner input a controller hands
// in while keys are split: every planner PlannerFor returns counts an
// instance's load from its Snapshot.Pinned entry up. Twelve keys of cost
// 100 sit on instance 0, which also carries 300 of pinned load, over
// four instances: L̄ = 375 and Lmax = 405, so a plan that counts the
// pinned load leaves instance 0 one key; one that ignores it (L̄ = 300)
// leaves it three, 600 in all.
func TestPlannersHonourPinnedLoad(t *testing.T) {
	snap := &stats.Snapshot{ND: 4, Pinned: []int64{300, 0, 0, 0}}
	for k := 1; k <= 12; k++ {
		snap.Keys = append(snap.Keys, stats.KeyStat{Key: tuple.Key(k), Cost: 100, Freq: 100, Mem: 10})
	}
	cfg := balance.Config{ThetaMax: topology.DefTheta, TableMax: topology.DefTableMax, Beta: topology.DefBeta}
	lmax := (1 + cfg.ThetaMax) * 1500 / 4
	for _, alg := range []topology.Algorithm{
		topology.AlgMixed, topology.AlgMixedBF, topology.AlgMinTable, topology.AlgMinMig,
		topology.AlgLLFD, topology.AlgSimple, topology.AlgCompact, topology.AlgReadj,
	} {
		plan := topology.PlannerFor(alg, 0, 0).Plan(snap, cfg)
		want := append([]int64(nil), snap.Pinned...)
		for _, ks := range snap.Keys {
			d := ks.Hash
			if td, ok := plan.Table.Lookup(ks.Key); ok {
				d = td
			}
			want[d] += ks.Cost
		}
		for d := range want {
			if plan.Loads[d] != want[d] {
				t.Fatalf("%s: estimated loads %v, want pinned plus placed keys %v", alg, plan.Loads, want)
			}
		}
		if !plan.Feasible || float64(plan.Loads[0]) > lmax {
			t.Fatalf("%s: loads %v (feasible %v): instance 0's pinned load was not counted against Lmax %.0f", alg, plan.Loads, plan.Feasible, lmax)
		}
	}
}
