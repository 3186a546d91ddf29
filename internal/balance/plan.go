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
	// Lmax constraint bounds; feasibility is judged against it because
	// underload can be unfixable by key placement alone.
	OverloadTheta float64
	// Feasible reports whether both constraints of Eq. 3 hold
	// (overload ≤ θmax and |A′| ≤ Amax where Amax > 0).
	Feasible bool
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

// gamma computes the migration priority index γ(k, w) = c(k)^β / S(k, w)
// (§III-B). Keys with no recorded state get S treated as 1 so that
// stateless keys are maximally attractive to move.
func gamma(cost, mem int64, beta float64) float64 {
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

// thetaSlack absorbs integer-rounding: with integer costs, exact θmax
// feasibility can be off by less than one tuple's weight.
const thetaSlack = 1e-9
