package balance

import (
	"time"

	"repro/internal/stats"
)

// --- Simple (Appendix, Algorithm 5) -----------------------------------

// Simple disassociates every key and re-packs the full key set by
// descending cost onto the least-loaded instance (classic FFD flavour).
// It ignores both the routing-table and migration budgets; the paper
// uses it as the analysis vehicle for Theorem 1.
type Simple struct{}

// Name implements Planner.
func (Simple) Name() string { return "Simple" }

// Plan implements Planner.
func (Simple) Plan(snap *stats.Snapshot, cfg Config) *Plan {
	start := time.Now()
	st := newState()
	defer st.release()
	st.load(snap, cfg)
	for i := range st.keys {
		st.disassociate(int32(i))
	}
	// Pure least-load-first packing: Algorithm 5 has no Adjust step, so
	// pop candidates in cost order and always take the least-loaded
	// instance. Nothing reads the per-instance lists, so they are not
	// built.
	for len(st.cand) > 0 {
		st.forceAssign(st.popCand())
	}
	return st.finish("Simple", start, cfg)
}

// --- LLFD as a standalone planner --------------------------------------

// LLFD exposes Algorithm 1 directly: Phase II selection by ψ = cost on
// the current assignment (no cleaning), then the LLFD subroutine. The
// paper excludes it from the system experiments because it cannot bound
// the routing-table size, but it anchors Theorem 1's property tests.
type LLFD struct {
	// Psi selects the candidate/exchange ordering; zero value is ByCost.
	Psi Criterion
	// NoAdjust disables the exchangeable-set repair (ablation hook):
	// keys are accepted only when they fit under Lmax outright, so the
	// re-overloading problem of §III-A goes unrepaired.
	NoAdjust bool
}

// Name implements Planner.
func (LLFD) Name() string { return "LLFD" }

// Plan implements Planner.
func (l LLFD) Plan(snap *stats.Snapshot, cfg Config) *Plan {
	start := time.Now()
	st := newState()
	defer st.release()
	st.load(snap, cfg)
	st.noAdjust = l.NoAdjust
	st.rebalance(l.Psi)
	return st.finish("LLFD", start, cfg)
}

// --- MinTable (Algorithm 2) --------------------------------------------

// MinTable erases the whole routing table in Phase I (moving every
// routed key back to its hash destination), then rebalances with
// ψ = highest cost first, which minimizes the number of entries the new
// table needs at the price of heavy state migration.
type MinTable struct{}

// Name implements Planner.
func (MinTable) Name() string { return "MinTable" }

// Plan implements Planner.
func (MinTable) Plan(snap *stats.Snapshot, cfg Config) *Plan {
	start := time.Now()
	st := newState()
	defer st.release()
	st.load(snap, cfg)
	// Phase I: move back all keys in A.
	for i := range st.keys {
		st.moveHome(int32(i))
	}
	st.rebalance(ByCost)
	return st.finish("MinTable", start, cfg)
}

// --- MinMig (Algorithm 3) ----------------------------------------------

// MinMig skips cleaning entirely and selects migration candidates by the
// migration-priority index γ(k,w) = c(k)^β / S(k,w), so the keys moved
// are those carrying the most computation per unit of state. The table
// size is uncontrolled (it converges to (ND−1)/ND·K over many
// adjustments, Fig. 18).
type MinMig struct{}

// Name implements Planner.
func (MinMig) Name() string { return "MinMig" }

// Plan implements Planner.
func (MinMig) Plan(snap *stats.Snapshot, cfg Config) *Plan {
	start := time.Now()
	st := newState()
	defer st.release()
	st.load(snap, cfg)
	st.rebalance(ByGamma)
	return st.finish("MinMig", start, cfg)
}

// --- Mixed (Algorithm 4) -----------------------------------------------

// CleanPolicy selects the Phase I cleaning criterion η for Mixed — an
// ablation hook around the paper's choice of "smallest memory first".
type CleanPolicy int

const (
	// CleanSmallestMem is the paper's η: move back the routed keys
	// whose windowed state is cheapest to abandon.
	CleanSmallestMem CleanPolicy = iota
	// CleanLargestMem inverts η (worst case for migration volume).
	CleanLargestMem
	// CleanByKey cleans in key order — effectively arbitrary with
	// respect to cost and memory.
	CleanByKey
)

// Mixed combines MinTable's cleaning with MinMig's migration-aware
// selection: clean the n routing-table entries with the smallest
// windowed memory S(k,w) (criterion η), run MinMig's phases, and grow n
// by the table overflow until |A′| ≤ Amax. n therefore starts at 0
// (pure MinMig) and only pays cleaning when the table budget forces it.
type Mixed struct {
	// Clean overrides the cleaning criterion (ablation hook); the zero
	// value is the paper's smallest-memory-first.
	Clean CleanPolicy
}

// MixedTrials bounds Mixed's cleaning retries, and those of
// compact.Planner, which adapts its loop.
const MixedTrials = 32

// Name implements Planner.
func (Mixed) Name() string { return "Mixed" }

// Plan implements Planner.
func (m Mixed) Plan(snap *stats.Snapshot, cfg Config) *Plan {
	start := time.Now()
	st := newState()
	defer st.release()
	// routed lists the keys occupying routing-table entries in the
	// cleaning criterion η's order (paper: smallest S(k,w) first). The
	// first trial cleans nothing, so the list waits for the first
	// overflow.
	var routed []int32
	n := 0
	var plan *Plan
	for t := 0; t < MixedTrials; t++ {
		plan = st.trial("Mixed", start, snap, cfg, routed[:n])
		if cfg.TableMax <= 0 {
			break
		}
		over := plan.Table.Len() - cfg.TableMax
		if over <= 0 {
			break
		}
		if t == 0 {
			st.routed = routedOrderBy(st.routed[:0], snap.Keys, m.Clean)
			routed = st.routed
		}
		// Algorithm 4 line 10 retries with the overused entry count; we
		// accumulate so successive trials monotonically clean more and
		// the loop cannot cycle. Once everything is cleaned a retry
		// would repeat this trial's plan.
		if n == len(routed) {
			break
		}
		n = min(n+over, len(routed))
	}
	plan.GenTime = time.Since(start)
	return plan
}

// --- MixedBF -------------------------------------------------------------

// MixedBF is the brute-force spectrum search: it evaluates cleaning
// depths n ∈ [0, NA] and keeps the feasible plan with the smallest
// migration cost (table size breaking ties). The paper uses it to show
// the heuristic trial loop loses little while being far faster
// (Fig. 12). MaxTrials quantizes the sweep when the routing table is
// huge (stride ⌈NA/MaxTrials⌉ instead of 1) so the search stays merely
// slow rather than unbounded; 0 means exhaustive.
type MixedBF struct {
	MaxTrials int
}

// Name implements Planner.
func (MixedBF) Name() string { return "MixedBF" }

// Plan implements Planner.
func (bf MixedBF) Plan(snap *stats.Snapshot, cfg Config) *Plan {
	start := time.Now()
	st := newState()
	defer st.release()
	st.routed = routedOrderBy(st.routed[:0], snap.Keys, CleanSmallestMem)
	routed := st.routed
	stride := 1
	if bf.MaxTrials > 0 && len(routed) > bf.MaxTrials {
		stride = (len(routed) + bf.MaxTrials - 1) / bf.MaxTrials
	}
	var best *Plan
	for n := 0; n <= len(routed); n += stride {
		if p := st.trial("MixedBF", start, snap, cfg, routed[:n]); better(p, best, cfg) {
			best = p
		}
	}
	best.GenTime = time.Since(start)
	return best
}

// better reports whether p should replace best under MixedBF's
// preference: feasibility first, then migration cost, then table size.
func better(p, best *Plan, cfg Config) bool {
	if best == nil {
		return true
	}
	pOK := cfg.TableMax <= 0 || p.Table.Len() <= cfg.TableMax
	bOK := cfg.TableMax <= 0 || best.Table.Len() <= cfg.TableMax
	if pOK != bOK {
		return pOK
	}
	if p.MigrationCost != best.MigrationCost {
		return p.MigrationCost < best.MigrationCost
	}
	return p.Table.Len() < best.Table.Len()
}

// rebalance runs Phase II and the LLFD subroutine under ψ over the
// working assignment as it stands (after any cleaning).
func (st *planState) rebalance(psi Criterion) {
	st.index()
	st.prepare(psi)
	st.runLLFD(psi)
}

// trial is one Mixed trial on a recycled state: reset the working
// assignment to the snapshot's, virtually move the cleaned keys back to
// their hash destinations, run MinMig's phases.
func (st *planState) trial(name string, start time.Time, snap *stats.Snapshot, cfg Config, cleaned []int32) *Plan {
	st.load(snap, cfg)
	for _, i := range cleaned {
		st.moveHome(i)
	}
	st.rebalance(ByGamma)
	return st.finish(name, start, cfg)
}
