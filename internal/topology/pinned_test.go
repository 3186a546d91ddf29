package topology_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// planningAlgs lists every algorithm PlannerFor returns a planner for.
var planningAlgs = []topology.Algorithm{
	topology.AlgMixed, topology.AlgMixedBF, topology.AlgMinTable, topology.AlgMinMig,
	topology.AlgLLFD, topology.AlgSimple, topology.AlgCompact, topology.AlgReadj,
}

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
	for _, alg := range planningAlgs {
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
		if plan.OverloadTheta > cfg.ThetaMax+1e-9 || plan.TableSize() > cfg.TableMax || float64(plan.Loads[0]) > lmax {
			t.Fatalf("%s: loads %v (overload θ %v, table %d): instance 0's pinned load was not counted against Lmax %.0f",
				alg, plan.Loads, plan.OverloadTheta, plan.TableSize(), lmax)
		}
	}
}

// FuzzPlannerForConsistency throws byte-derived snapshots, with pinned
// loads when pins is not empty, at every planner PlannerFor returns and
// re-derives each plan from the snapshot: every key's final destination
// from A′ and its hash, the loads from the Pinned entries up, Δ with
// its destinations and migration cost, and θ. No planner may write to
// the snapshot.
func FuzzPlannerForConsistency(f *testing.F) {
	f.Add([]byte{10, 3, 200, 7, 1, 1, 90, 4}, []byte{}, uint8(3), uint8(10))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, []byte{0, 9}, uint8(2), uint8(0))
	f.Add([]byte{255, 0, 128, 64, 32, 16, 8, 4, 2, 1, 7, 5}, []byte{200, 0, 0}, uint8(5), uint8(50))
	f.Fuzz(func(t *testing.T, raw, pins []byte, ndRaw, thetaRaw uint8) {
		nd := int(ndRaw%8) + 2
		snap := &stats.Snapshot{ND: nd}
		if len(pins) > 0 {
			snap.Pinned = make([]int64, nd)
			for d := range snap.Pinned {
				snap.Pinned[d] = 4 * int64(pins[d%len(pins)])
			}
		}
		for i := 0; i+3 < len(raw) && i < 400; i += 4 {
			snap.Keys = append(snap.Keys, stats.KeyStat{
				Key:  tuple.Key(i),
				Cost: int64(raw[i]) + 1,
				Mem:  int64(raw[i+1]),
				Dest: int(raw[i+2]) % nd,
				Hash: int(raw[i+3]) % nd,
			})
		}
		if len(snap.Keys) == 0 {
			return
		}
		stats.SortByCostDesc(snap.Keys)
		before := snap.Clone()
		cfg := balance.Config{ThetaMax: float64(thetaRaw%100) / 100, TableMax: 1 + int(thetaRaw), Beta: 1.5}
		for _, alg := range planningAlgs {
			plan := topology.PlannerFor(alg, 0, 0).Plan(snap, cfg)
			if !reflect.DeepEqual(snap, before) {
				t.Fatalf("%s wrote to the snapshot", alg)
			}
			loads := slices.Clone(snap.Pinned)
			if loads == nil {
				loads = make([]int64, nd)
			}
			var mig int64
			moves, entries := 0, 0
			for _, ks := range snap.Keys {
				d, routed := plan.Table.Lookup(ks.Key)
				if !routed {
					d = ks.Hash
				} else if entries++; d == ks.Hash || d < 0 || d >= nd {
					t.Fatalf("%s: key %d routed to %d (hash %d, %d instances)", alg, ks.Key, d, ks.Hash, nd)
				}
				loads[d] += ks.Cost
				md, moved := plan.MoveDest[ks.Key]
				if moved != (d != ks.Dest) || moved && md != d {
					t.Fatalf("%s: key %d on %d ends on %d, MoveDest (%d, %v)", alg, ks.Key, ks.Dest, d, md, moved)
				}
				if moved {
					mig += ks.Mem
					moves++
				}
			}
			switch {
			case plan.Table.Len() != entries || len(plan.MoveDest) != moves:
				t.Fatalf("%s: table %d entries, MoveDest %d; %d are snapshot keys, %d keys moved",
					alg, plan.Table.Len(), len(plan.MoveDest), entries, moves)
			case len(plan.Moved) != moves || !slices.IsSorted(plan.Moved):
				t.Fatalf("%s: Moved %v, want the %d moved keys in ascending order", alg, plan.Moved, moves)
			case plan.MigrationCost != mig:
				t.Fatalf("%s: migration cost %d, re-derived %d", alg, plan.MigrationCost, mig)
			case !slices.Equal(plan.Loads, loads):
				t.Fatalf("%s: loads %v, re-derived from Pinned %v up %v", alg, plan.Loads, snap.Pinned, loads)
			case plan.MaxTheta != stats.MaxTheta(loads) || plan.OverloadTheta != stats.OverloadTheta(loads):
				t.Fatalf("%s: θ %v/%v, re-derived %v/%v", alg, plan.MaxTheta, plan.OverloadTheta,
					stats.MaxTheta(loads), stats.OverloadTheta(loads))
			}
		}
	})
}
