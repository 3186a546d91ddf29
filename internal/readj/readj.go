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
	"slices"
	"sort"
	"time"

	"repro/internal/balance"
	"repro/internal/stats"
)

// Planner runs the Readj heuristic. Sigma is the hot-key threshold: a
// key participates in moves/swaps when c(k) ≥ Sigma·L̄. The paper tunes
// σ per experiment; Tune walks a fixed ladder of σ values and keeps the
// best plan.
type Planner struct {
	Sigma float64
}

// Name implements balance.Planner.
func (p Planner) Name() string { return "Readj" }

// Plan implements balance.Planner. The problem is this plan's own, so
// the search moves load on its Loads in place; cur[i] is key i's
// working destination.
func (p Planner) Plan(snap *stats.Snapshot, cfg balance.Config) *balance.Plan {
	start := time.Now()
	pr := balance.NewProblem(snap, cfg)
	keys, loads, lmax := snap.Keys, pr.Loads, pr.Lmax
	cur := make([]int32, len(keys))
	for i := range keys {
		cur[i] = int32(keys[i].Dest)
	}

	// Step 1: restore routed keys to their hash destination whenever the
	// receiving instance stays within Lmax — Readj's bias toward a small
	// routing table.
	for i := range keys {
		k := &keys[i]
		if int(cur[i]) != k.Hash && float64(loads[k.Hash])+float64(k.Cost) <= lmax {
			loads[cur[i]] -= k.Cost
			loads[k.Hash] += k.Cost
			cur[i] = int32(k.Hash)
		}
	}

	// Hot-key candidate set: c(k) ≥ σ·L̄.
	thresh := p.Sigma * pr.Avg
	var hot []int
	for i := range keys {
		if float64(keys[i].Cost) >= thresh {
			hot = append(hot, i)
		}
	}
	sort.Slice(hot, func(a, b int) bool { return keys[hot[a]].Cost > keys[hot[b]].Cost })

	// Improvement loop: each round scans every (hot key → instance) move
	// and every hot-key pair swap, applying the single change that most
	// reduces the maximum load. This O(|hot|²) pairing per round is the
	// published algorithm's cost profile; the rounds are bounded in
	// proportion to the candidate count.
	for iter := 0; iter < 4*len(hot)+64; iter++ {
		maxLoad := slices.Max(loads)
		if float64(maxLoad) <= lmax {
			break
		}
		bestGain := int64(0)
		bestMove := -1
		bestDest := -1
		bestSwapA, bestSwapB := -1, -1
		// Single moves.
		for _, i := range hot {
			src, cost := int(cur[i]), keys[i].Cost
			if loads[src] != maxLoad {
				continue
			}
			for d := range loads {
				if d == src {
					continue
				}
				if gain := maxLoad - max(loads[src]-cost, loads[d]+cost); gain > bestGain {
					bestGain, bestMove, bestDest = gain, i, d
					bestSwapA, bestSwapB = -1, -1
				}
			}
		}
		// Pairwise swaps.
		for _, a := range hot {
			if loads[cur[a]] != maxLoad {
				continue
			}
			for _, b := range hot {
				if cur[b] == cur[a] || keys[b].Cost >= keys[a].Cost {
					continue
				}
				diff := keys[a].Cost - keys[b].Cost
				if gain := maxLoad - max(loads[cur[a]]-diff, loads[cur[b]]+diff); gain > bestGain {
					bestGain = gain
					bestMove, bestDest = -1, -1
					bestSwapA, bestSwapB = a, b
				}
			}
		}
		if bestGain <= 0 {
			break // no improving move among hot keys
		}
		if bestMove >= 0 {
			loads[cur[bestMove]] -= keys[bestMove].Cost
			loads[bestDest] += keys[bestMove].Cost
			cur[bestMove] = int32(bestDest)
		} else {
			a, b := bestSwapA, bestSwapB
			loads[cur[a]] -= keys[a].Cost
			loads[cur[b]] -= keys[b].Cost
			cur[a], cur[b] = cur[b], cur[a]
			loads[cur[a]] += keys[a].Cost
			loads[cur[b]] += keys[b].Cost
		}
	}

	plan := pr.Finish("Readj", cur)
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
