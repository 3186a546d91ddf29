// Package readj reimplements the Readj baseline (Gedik, "Partitioning
// functions for stateful data parallelism in stream processing", VLDBJ
// 23(4), 2014) as characterized in §I/§VI of the reproduced paper:
//
//   - it uses the same hash + explicit-table partitioning function;
//   - rebalance first tries to move routed keys back to their hash
//     destinations, then searches migrations over the *hot* keys only —
//     those whose load is at least σ·L̄ — by pairing tasks and keys and
//     evaluating all single-key moves and pairwise swaps, applying the
//     best improvement until balance is reached or no move helps.
//
// The exhaustive pairing is what makes Readj slow under high churn
// (Fig. 12) and ineffective when hot keys alone cannot restore balance
// (Fig. 14): both behaviours emerge from this implementation.
package readj

import (
	"sort"
	"time"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Planner runs the Readj heuristic. Sigma is the hot-key threshold: a
// key participates in moves/swaps when c(k) ≥ Sigma·L̄. The paper tunes
// σ per experiment by binary search; SigmaCandidates in this package's
// Tune helper mirrors that.
type Planner struct {
	Sigma float64
}

// Name implements balance.Planner.
func (p Planner) Name() string { return "Readj" }

type keyView struct {
	key  tuple.Key
	cost int64
	mem  int64
	orig int
	hash int
	cur  int
}

// Plan implements balance.Planner.
func (p Planner) Plan(snap *stats.Snapshot, cfg balance.Config) *balance.Plan {
	start := time.Now()
	nd := snap.ND
	keys := make([]keyView, len(snap.Keys))
	loads := make([]int64, nd)
	var total int64
	for d, p := range snap.Pinned {
		loads[d] = p
		total += p
	}
	for i, ks := range snap.Keys {
		keys[i] = keyView{key: ks.Key, cost: ks.Cost, mem: ks.Mem, orig: ks.Dest, hash: ks.Hash, cur: ks.Dest}
		loads[ks.Dest] += ks.Cost
		total += ks.Cost
	}
	avg := float64(total) / float64(nd)
	lmax := (1 + cfg.ThetaMax) * avg

	// Step 1: restore routed keys to their hash destination whenever the
	// receiving instance stays within Lmax — Readj's bias toward a small
	// routing table.
	for i := range keys {
		k := &keys[i]
		if k.cur != k.hash && float64(loads[k.hash])+float64(k.cost) <= lmax {
			loads[k.cur] -= k.cost
			loads[k.hash] += k.cost
			k.cur = k.hash
		}
	}

	// Hot-key candidate set: c(k) ≥ σ·L̄.
	thresh := p.Sigma * avg
	var hot []int
	for i := range keys {
		if float64(keys[i].cost) >= thresh {
			hot = append(hot, i)
		}
	}
	sort.Slice(hot, func(a, b int) bool { return keys[hot[a]].cost > keys[hot[b]].cost })

	// Improvement loop: each round scans every (hot key → instance) move
	// and every hot-key pair swap, applying the single change that most
	// reduces the maximum load. This O(|hot|²) pairing per round is the
	// published algorithm's cost profile; the rounds are bounded in
	// proportion to the candidate count.
	for iter := 0; iter < 4*len(hot)+64; iter++ {
		maxLoad := loads[0]
		for _, l := range loads {
			if l > maxLoad {
				maxLoad = l
			}
		}
		if float64(maxLoad) <= lmax {
			break
		}
		bestGain := int64(0)
		bestMove := -1
		bestDest := -1
		bestSwapA, bestSwapB := -1, -1
		// Single moves.
		for _, i := range hot {
			k := &keys[i]
			if loads[k.cur] != maxLoad {
				continue
			}
			for d := 0; d < nd; d++ {
				if d == k.cur {
					continue
				}
				newSrc := loads[k.cur] - k.cost
				newDst := loads[d] + k.cost
				newMax := max64(newSrc, newDst)
				if gain := maxLoad - newMax; gain > bestGain {
					bestGain, bestMove, bestDest = gain, i, d
					bestSwapA, bestSwapB = -1, -1
				}
			}
		}
		// Pairwise swaps.
		for ai := 0; ai < len(hot); ai++ {
			a := &keys[hot[ai]]
			if loads[a.cur] != maxLoad {
				continue
			}
			for bi := 0; bi < len(hot); bi++ {
				b := &keys[hot[bi]]
				if b.cur == a.cur || b.cost >= a.cost {
					continue
				}
				diff := a.cost - b.cost
				newSrc := loads[a.cur] - diff
				newDst := loads[b.cur] + diff
				newMax := max64(newSrc, newDst)
				if gain := maxLoad - newMax; gain > bestGain {
					bestGain = gain
					bestMove, bestDest = -1, -1
					bestSwapA, bestSwapB = hot[ai], hot[bi]
				}
			}
		}
		if bestGain <= 0 {
			break // no improving move among hot keys
		}
		if bestMove >= 0 {
			k := &keys[bestMove]
			loads[k.cur] -= k.cost
			loads[bestDest] += k.cost
			k.cur = bestDest
		} else {
			a, b := &keys[bestSwapA], &keys[bestSwapB]
			loads[a.cur] -= a.cost
			loads[b.cur] -= b.cost
			a.cur, b.cur = b.cur, a.cur
			loads[a.cur] += a.cost
			loads[b.cur] += b.cost
		}
	}

	plan := &balance.Plan{
		Algorithm: "Readj",
		Table:     route.NewTable(),
		MoveDest:  make(map[tuple.Key]int),
		Loads:     loads,
	}
	for i := range keys {
		k := &keys[i]
		if k.cur != k.hash {
			plan.Table.Put(k.key, k.cur)
		}
		if k.cur != k.orig {
			plan.Moved = append(plan.Moved, k.key)
			plan.MoveDest[k.key] = k.cur
			plan.MigrationCost += k.mem
		}
	}
	sort.Slice(plan.Moved, func(a, b int) bool { return plan.Moved[a] < plan.Moved[b] })
	plan.MaxTheta = stats.MaxTheta(loads)
	plan.OverloadTheta = stats.OverloadTheta(loads)
	plan.Feasible = plan.OverloadTheta <= cfg.ThetaMax+1e-9
	plan.GenTime = time.Since(start)
	return plan
}

// Tune runs the planner over a ladder of σ values and returns the plan
// with the best balance (ties: least migration), mirroring the paper's
// "run Readj with different σs and report the best result".
func Tune(snap *stats.Snapshot, cfg balance.Config, sigmas []float64) *balance.Plan {
	if len(sigmas) == 0 {
		sigmas = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
	}
	start := time.Now()
	var best *balance.Plan
	for _, s := range sigmas {
		p := Planner{Sigma: s}.Plan(snap, cfg)
		if best == nil || p.MaxTheta < best.MaxTheta ||
			(p.MaxTheta == best.MaxTheta && p.MigrationCost < best.MigrationCost) {
			best = p
		}
	}
	best.GenTime = time.Since(start)
	return best
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
