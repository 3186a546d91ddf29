package compact

import (
	"sort"

	"repro/internal/balance"
	"repro/internal/stats"
)

// Vector is the paper's 6-dimensional record (d′, d, dh, vc, vS, #)
// without d′: Count keys that currently live on instance Cur, hash to
// instance Hash, and each carry discretized cost Cost and windowed
// memory Mem. The planner keeps d′ per unit (a vector's share that
// moves together).
type Vector struct {
	Cur   int
	Hash  int
	Cost  int64
	Mem   int64
	Count int64
	// keyIdx are the snapshot indices of the keys folded into this
	// vector, used to materialize the plan back onto real keys.
	keyIdx []int
}

// Gamma returns the vector's migration priority γ = Cost^β / Mem, as
// balance.Gamma computes it for a key.
func (v *Vector) Gamma(beta float64) float64 { return balance.Gamma(v.Cost, v.Mem, beta) }

// Space groups a snapshot's keys into the compact vector space Kc after
// discretizing vc and vS with degree R.
type Space struct {
	Vectors []*Vector
	// snapshot retained for materialization.
	snap *stats.Snapshot
	// estCost[i] is the discretized cost of snapshot key i, kept for
	// load-estimation-error reporting.
	estCost []int64
}

// Build folds the snapshot into vectors: keys agreeing on
// (Cur, Hash, φ(cost), φ(mem)) merge into one vector with summed count.
// R = 1 reproduces the exact value space (finest granularity).
func Build(snap *stats.Snapshot, R int64) *Space {
	costs := make([]int64, len(snap.Keys))
	mems := make([]int64, len(snap.Keys))
	for i, ks := range snap.Keys {
		costs[i] = ks.Cost
		mems[i] = ks.Mem
	}
	ec := DiscretizeAll(costs, R)
	em := DiscretizeAll(mems, R)

	type sig struct {
		cur, hash int
		c, m      int64
	}
	groups := make(map[sig]*Vector)
	for i, ks := range snap.Keys {
		s := sig{cur: ks.Dest, hash: ks.Hash, c: ec[i], m: em[i]}
		v := groups[s]
		if v == nil {
			v = &Vector{Cur: ks.Dest, Hash: ks.Hash, Cost: ec[i], Mem: em[i]}
			groups[s] = v
		}
		v.Count++
		v.keyIdx = append(v.keyIdx, i)
	}
	sp := &Space{snap: snap, estCost: ec}
	for _, v := range groups {
		sp.Vectors = append(sp.Vectors, v)
	}
	// Deterministic order: by cost desc, then mem, cur, hash.
	sort.Slice(sp.Vectors, func(a, b int) bool {
		va, vb := sp.Vectors[a], sp.Vectors[b]
		if va.Cost != vb.Cost {
			return va.Cost > vb.Cost
		}
		if va.Mem != vb.Mem {
			return va.Mem < vb.Mem
		}
		if va.Cur != vb.Cur {
			return va.Cur < vb.Cur
		}
		return va.Hash < vb.Hash
	})
	return sp
}

// EstimatedLoads returns per-instance loads computed from discretized
// costs under the snapshot's current destinations, over its pinned
// loads.
func (sp *Space) EstimatedLoads() []int64 {
	loads := make([]int64, sp.snap.ND)
	copy(loads, sp.snap.Pinned)
	for i, ks := range sp.snap.Keys {
		loads[ks.Dest] += sp.estCost[i]
	}
	return loads
}

// LoadEstimationError returns the Fig. 11(b) metric: the maximum over
// instances of |estimated − actual| / actual, as a percentage, under
// the snapshot's current assignment.
func (sp *Space) LoadEstimationError() float64 {
	act := sp.snap.Loads()
	est := sp.EstimatedLoads()
	var worst float64
	for d := range act {
		if act[d] == 0 {
			continue
		}
		diff := float64(est[d] - act[d])
		if diff < 0 {
			diff = -diff
		}
		if e := 100 * diff / float64(act[d]); e > worst {
			worst = e
		}
	}
	return worst
}
