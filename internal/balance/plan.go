// Package balance implements the paper's rebalance planners (§III): the
// LLFD subroutine with its Adjust/exchangeable-set repair, the Simple
// appendix baseline, and the MinTable, MinMig, Mixed and MixedBF
// algorithms that construct a new assignment function F′ from one
// interval's statistics snapshot.
//
// All planners are pure functions over a stats.Snapshot: they never
// touch live engine state and never write to the snapshot. The engine
// applies the returned Plan on the stage sealed at the interval
// barrier (engine.Stage.ApplyPlan).
//
// # One problem, one summary
//
// Every planner, readj's and compact's included, follows the same flow.
// NewProblem states the round's problem once from the (snapshot, config)
// pair: the loads L(d) counted from the Pinned entries up, L̄ and the
// load bound Lmax = (1+θmax)·L̄. The planner searches for final
// destinations against it, and Problem.Finish turns those into the Plan:
// A′, Δ with its migration cost M = Σ_{k∈Δ} S(k, w), the loads under F′
// and their θ. The controller reads the same Problem for its hold and
// its θ check, so no second L̄ or Lmax exists.
//
// # Planner state
//
// A plan reads the snapshot's records in place; what it adds per key is
// a working destination; γ is computed where a ψ = ByGamma comparison
// needs it, from a memo of c^β per distinct small cost. That state, the per-instance key
// lists and the heaps live in a planState recycled through a package
// pool — across plans and across Mixed's trials — so steady planning
// allocates nothing sized by the population; the Plan itself is new
// memory and never aliases the pool. Phase II and the exchangeable sets
// take keys in ψ order from a heap over one instance's keys until the
// instance fits under Lmax, instead of sorting it. ψ and the candidate
// order are total over unique keys, so the plans are those of a full
// rebuild with full sorts: reference_test.go keeps that implementation
// and a randomized model test pins every planner's whole Plan to it.
package balance

import (
	"math"
	"slices"
	"time"

	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Config carries the optimization-problem parameters of Eq. 3 plus the
// algorithm knobs from Tab. II.
type Config struct {
	// ThetaMax is the imbalance tolerance θmax: instance d is considered
	// balanced when L(d) ≤ (1+θmax)·L̄.
	ThetaMax float64
	// TableMax is Amax, the routing-table size bound. ≤ 0 means
	// unbounded (used by LLFD/MinMig, which the paper notes cannot
	// control table size).
	TableMax int
	// Beta is the migration-priority exponent β in γ(k,w) = c(k)^β / S(k,w).
	Beta float64
}

// Plan is the outcome of one planner run: the new routing table A′, the
// migration set Δ(F, F′) and the cost/balance accounting the evaluation
// section reports.
type Plan struct {
	Algorithm string
	// Table is A′: every key whose final destination differs from its
	// hash default.
	Table *route.Table
	// Moved is Δ(F, F′): keys whose destination changed versus the
	// previous assignment, i.e. the keys whose state must migrate.
	Moved []tuple.Key
	// MoveDest gives the new destination for each key in Moved.
	MoveDest map[tuple.Key]int
	// MigrationCost is M = Σ_{k ∈ Δ} S(k, w).
	MigrationCost int64
	// Loads is the planner's estimate of L(d) under F′.
	Loads []int64
	// MaxTheta is max_d θ(d) = |L(d)−L̄|/L̄ under the estimated loads
	// (two-sided, as defined in §II-A; reported in figures).
	MaxTheta float64
	// OverloadTheta is max_d (L(d)−L̄)/L̄, the one-sided quantity the
	// Lmax constraint bounds: underload can be unfixable by key
	// placement alone.
	OverloadTheta float64
	// GenTime is the wall-clock planning latency ("average generation
	// time" in Figs. 8–12).
	GenTime time.Duration
}

// TableSize returns |A′|.
func (p *Plan) TableSize() int {
	if p.Table == nil {
		return 0
	}
	return p.Table.Len()
}

// MigrationPct returns the migration cost as a percentage of the total
// state Σ_k S(k,w) in the snapshot, the unit of the paper's
// migration-cost figures.
func (p *Plan) MigrationPct(totalMem int64) float64 {
	if totalMem <= 0 {
		return 0
	}
	return 100 * float64(p.MigrationCost) / float64(totalMem)
}

// Gamma computes the migration priority index γ(k, w) = c(k)^β / S(k, w)
// (§III-B). Keys with no recorded state get S treated as 1 so that
// stateless keys are maximally attractive to move.
func Gamma(cost, mem int64, beta float64) float64 {
	if cost <= 0 {
		return 0
	}
	return perMem(math.Pow(float64(cost), beta), mem)
}

// perMem divides a key's c(k)^β by its S(k, w), counting no recorded
// state as 1.
func perMem(p float64, mem int64) float64 {
	s := float64(mem)
	if s < 1 {
		s = 1
	}
	return p / s
}

// Criterion orders candidate keys for Phase II selection and for the
// exchangeable-set construction inside Adjust — the paper's ψ.
type Criterion int

const (
	// ByCost is "highest computation cost first" (MinTable's ψ).
	ByCost Criterion = iota
	// ByGamma is "largest γ(k,w) first" (MinMig's and Mixed's ψ).
	ByGamma
)

// Planner is the common interface of all rebalance algorithms.
type Planner interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Plan constructs F′ from the snapshot under the configuration.
	Plan(snap *stats.Snapshot, cfg Config) *Plan
}

// Problem is one rebalance round's instance of Eq. 3: the snapshot's
// keys over its ND instances under a configuration, with the loads
// under the snapshot's destinations and the bound they must meet.
type Problem struct {
	snap *stats.Snapshot
	cfg  Config
	// Loads is L(d) under the snapshot's recorded destinations, counted
	// from the Pinned entries up.
	Loads []int64
	// Avg is L̄ = Σ_d L(d) / ND, and Lmax = (1+θmax)·L̄ the load bound.
	Avg, Lmax float64
}

// NewProblem states the round's problem for a snapshot and a
// configuration.
func NewProblem(snap *stats.Snapshot, cfg Config) *Problem {
	pr := &Problem{snap: snap, cfg: cfg, Loads: snap.Loads()}
	var total int64
	for _, l := range pr.Loads {
		total += l
	}
	pr.Avg = float64(total) / float64(snap.ND)
	pr.Lmax = (1 + cfg.ThetaMax) * pr.Avg
	return pr
}

// Finish summarizes the plan that sends the snapshot's key i to
// dest[i]: A′ holds every key off its hash destination, Δ (sorted)
// every key off its recorded one with M = Σ_{k∈Δ} S(k, w), and the
// loads and θ are those under dest from the Pinned entries up. The
// Plan aliases neither dest nor the snapshot; GenTime is the caller's.
func (pr *Problem) Finish(name string, dest []int32) *Plan {
	p := &Plan{
		Algorithm: name,
		Table:     route.NewTable(),
		MoveDest:  make(map[tuple.Key]int),
		Loads:     make([]int64, pr.snap.ND),
	}
	copy(p.Loads, pr.snap.Pinned)
	for i := range pr.snap.Keys {
		ks, d := &pr.snap.Keys[i], int(dest[i])
		p.Loads[d] += ks.Cost
		if d != ks.Hash {
			p.Table.Put(ks.Key, d)
		}
		if d != ks.Dest {
			p.Moved = append(p.Moved, ks.Key)
			p.MoveDest[ks.Key] = d
			p.MigrationCost += ks.Mem
		}
	}
	slices.Sort(p.Moved)
	p.MaxTheta = stats.MaxTheta(p.Loads)
	p.OverloadTheta = stats.OverloadTheta(p.Loads)
	return p
}
