package balance

// The reference planner: the per-plan rebuild the production planner
// replaced — a refKey per key with γ computed eagerly, the whole
// per-instance index rebuilt from scratch, and full sorts where the
// production code selects. It exists only so the randomized model test
// can pin every planner's whole Plan against it; ψ and the candidate
// order are total, so selection and sorting must agree bit for bit.

import (
	"sort"
	"time"

	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// refKey is the planner's mutable view of one key.
type refKey struct {
	key  tuple.Key
	cost int64
	mem  int64
	g    float64 // cached γ under the run's β
	orig int     // F(k): destination before planning (migration baseline)
	hash int     // h(k)
	cur  int     // working destination; -1 while in the candidate set
}

// less orders a before b under the criterion (descending preference).
func refLess(c Criterion, a, b *refKey) bool {
	switch c {
	case ByGamma:
		if a.g != b.g {
			return a.g > b.g
		}
	default:
	}
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	return a.key < b.key
}

func refBuildState(snap *stats.Snapshot, cfg Config) *refState {
	st := &refState{
		nd:    snap.ND,
		loads: make([]int64, snap.ND),
		keys:  make([]refKey, len(snap.Keys)),
	}
	for i, ks := range snap.Keys {
		st.keys[i] = refKey{
			key:  ks.Key,
			cost: ks.Cost,
			mem:  ks.Mem,
			g:    gamma(ks.Cost, ks.Mem, cfg.Beta),
			orig: ks.Dest,
			hash: ks.Hash,
			cur:  ks.Dest,
		}
		st.loads[ks.Dest] += ks.Cost
		st.total += ks.Cost
	}
	st.avg = float64(st.total) / float64(st.nd)
	st.lmax = (1 + cfg.ThetaMax) * st.avg
	return st
}

// finish converts the working state into a Plan.
func (st *refState) finish(name string, snap *stats.Snapshot, started time.Time, cfg Config) *Plan {
	p := &Plan{
		Algorithm: name,
		Table:     route.NewTable(),
		MoveDest:  make(map[tuple.Key]int),
		Loads:     append([]int64(nil), st.loads...),
	}
	for i := range st.keys {
		k := &st.keys[i]
		if k.cur != k.hash {
			p.Table.Put(k.key, k.cur)
		}
		if k.cur != k.orig {
			p.Moved = append(p.Moved, k.key)
			p.MoveDest[k.key] = k.cur
			p.MigrationCost += k.mem
		}
	}
	sort.Slice(p.Moved, func(a, b int) bool { return p.Moved[a] < p.Moved[b] })
	p.MaxTheta = stats.MaxTheta(p.Loads)
	p.OverloadTheta = stats.OverloadTheta(p.Loads)
	p.Feasible = p.OverloadTheta <= cfg.ThetaMax+thetaSlack
	if cfg.TableMax > 0 && p.Table.Len() > cfg.TableMax {
		p.Feasible = false
	}
	p.GenTime = time.Since(started)
	return p
}

// refState is the mutable working set shared by every planner: the
// per-key records, the per-instance load estimates L̂(d) and the
// candidate heap C.
type refState struct {
	nd    int
	loads []int64
	total int64
	avg   float64 // L̄ from the snapshot (fixed during planning)
	lmax  float64 // Lmax = (1+θmax)·L̄
	keys  []refKey
	// byInst[d] holds indices of keys whose working destination is d.
	// Entries go stale when keys move; scans revalidate against cur.
	byInst [][]int
	// cand is the candidate set C as a max-heap ordered by cost
	// (Algorithm 1 pops keys in descending c(k)).
	cand refHeap
	// ops counts Adjust attempts, bounding pathological exchange
	// cascades; see forceAssign.
	ops int
	// scratch is reused across exchangeSet calls within one plan run to
	// avoid per-call slice churn.
	scratch []int
	// noAdjust disables exchangeable-set repair (ablation hook).
	noAdjust bool
}

// initInstanceIndex builds byInst from the current working destinations.
func (st *refState) initInstanceIndex() {
	st.byInst = make([][]int, st.nd)
	for i := range st.keys {
		if d := st.keys[i].cur; d >= 0 {
			st.byInst[d] = append(st.byInst[d], i)
		}
	}
}

// disassociate removes key i from its working instance and pushes it
// into the candidate set.
func (st *refState) disassociate(i int) {
	k := &st.keys[i]
	if k.cur < 0 {
		return
	}
	st.loads[k.cur] -= k.cost
	k.cur = -1
	st.cand.push(st, i)
}

// assign binds key i to instance d and updates the load estimate.
func (st *refState) assign(i, d int) {
	k := &st.keys[i]
	k.cur = d
	st.loads[d] += k.cost
	st.byInst[d] = append(st.byInst[d], i)
}

// instKeys returns the live key indices currently on instance d,
// compacting stale entries in place.
func (st *refState) instKeys(d int) []int {
	live := st.byInst[d][:0]
	for _, i := range st.byInst[d] {
		if st.keys[i].cur == d {
			live = append(live, i)
		}
	}
	st.byInst[d] = live
	return live
}

// overloaded returns instances with L̂(d) > Lmax.
func (st *refState) overloaded() []int {
	var out []int
	for d, l := range st.loads {
		if float64(l) > st.lmax {
			out = append(out, d)
		}
	}
	return out
}

// instancesByLoad returns instance ids ordered by ascending L̂(d)
// (Algorithm 1 line 4), with id tie-break for determinism.
func (st *refState) instancesByLoad() []int {
	ds := make([]int, st.nd)
	for i := range ds {
		ds[i] = i
	}
	sort.Slice(ds, func(a, b int) bool {
		if st.loads[ds[a]] != st.loads[ds[b]] {
			return st.loads[ds[a]] < st.loads[ds[b]]
		}
		return ds[a] < ds[b]
	})
	return ds
}

// prepare implements Phase II: walk every overloaded instance and
// disassociate keys — chosen by ψ — until the instance's estimated load
// drops to Lmax or it runs out of keys (§III, "Preparing").
func (st *refState) prepare(psi Criterion) {
	for _, d := range st.overloaded() {
		idxs := append([]int(nil), st.instKeys(d)...)
		sort.Slice(idxs, func(a, b int) bool {
			return refLess(psi, &st.keys[idxs[a]], &st.keys[idxs[b]])
		})
		for _, i := range idxs {
			if float64(st.loads[d]) <= st.lmax {
				break
			}
			st.disassociate(i)
		}
	}
}

// runLLFD implements Algorithm 1 (Least-Load Fit Decreasing): pop the
// costliest candidate, try instances in ascending load order, and let
// adjust repair re-overloading via exchangeable sets. Keys no instance
// accepts are force-assigned to the least-loaded instance so the
// algorithm always terminates with a total assignment.
func (st *refState) runLLFD(psi Criterion) {
	budget := adjustBudgetFactor*len(st.keys) + adjustBudgetFloor
	for st.cand.len() > 0 {
		i := st.cand.pop(st)
		placed := false
		if st.ops < budget {
			for _, d := range st.instancesByLoad() {
				st.ops++
				if st.adjust(i, d, psi) {
					st.assign(i, d)
					placed = true
					break
				}
			}
		}
		if !placed {
			st.forceAssign(i)
		}
	}
}

// forceAssign places key i on the least-loaded instance unconditionally.
func (st *refState) forceAssign(i int) {
	best, bestLoad := 0, st.loads[0]
	for d := 1; d < st.nd; d++ {
		if st.loads[d] < bestLoad {
			best, bestLoad = d, st.loads[d]
		}
	}
	st.assign(i, best)
}

// adjust is the paper's Adjust(k, d, C, θmax) (Algorithm 1 lines 10–20):
// accept if d stays within Lmax; otherwise try to construct an
// exchangeable set E of keys currently on d, each cheaper than k
// (condition ii), whose removal brings d within Lmax after k's arrival
// (condition iii). Members of E are disassociated into C on success.
func (st *refState) adjust(i, d int, psi Criterion) bool {
	k := &st.keys[i]
	if float64(st.loads[d])+float64(k.cost) <= st.lmax {
		return true
	}
	if st.noAdjust {
		return false
	}
	e := st.exchangeSet(i, d, psi)
	if e == nil {
		return false
	}
	for _, j := range e {
		st.disassociate(j)
	}
	return float64(st.loads[d])+float64(k.cost) <= st.lmax
}

// exchangeSet builds E for key i arriving at instance d: candidates are
// keys on d with cost strictly below c(k) (condition ii), taken in ψ
// order until the projected load fits under Lmax (condition iii).
// Returns nil when even the full eligible set cannot make room.
func (st *refState) exchangeSet(i, d int, psi Criterion) []int {
	k := &st.keys[i]
	need := float64(st.loads[d]) + float64(k.cost) - st.lmax
	if need <= 0 {
		return []int{}
	}
	eligible := st.scratch[:0]
	var eligibleSum int64
	for _, j := range st.instKeys(d) {
		if st.keys[j].cost < k.cost {
			eligible = append(eligible, j)
			eligibleSum += st.keys[j].cost
		}
	}
	st.scratch = eligible
	if float64(eligibleSum) < need {
		return nil
	}
	sort.Slice(eligible, func(a, b int) bool {
		return refLess(psi, &st.keys[eligible[a]], &st.keys[eligible[b]])
	})
	var out []int
	var got float64
	for _, j := range eligible {
		if got >= need {
			break
		}
		out = append(out, j)
		got += float64(st.keys[j].cost)
	}
	if got < need {
		return nil
	}
	return out
}

// refHeap is a binary max-heap of key indices ordered by descending
// cost (ties by ascending key for determinism).
type refHeap struct{ idx []int }

func (h *refHeap) len() int { return len(h.idx) }

func (h *refHeap) lessIdx(st *refState, a, b int) bool {
	ka, kb := &st.keys[h.idx[a]], &st.keys[h.idx[b]]
	if ka.cost != kb.cost {
		return ka.cost > kb.cost
	}
	return ka.key < kb.key
}

func (h *refHeap) push(st *refState, i int) {
	h.idx = append(h.idx, i)
	c := len(h.idx) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !h.lessIdx(st, c, p) {
			break
		}
		h.idx[c], h.idx[p] = h.idx[p], h.idx[c]
		c = p
	}
}

func (h *refHeap) pop(st *refState) int {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		if l >= len(h.idx) {
			break
		}
		m := l
		if r < len(h.idx) && h.lessIdx(st, r, l) {
			m = r
		}
		if !h.lessIdx(st, m, c) {
			break
		}
		h.idx[c], h.idx[m] = h.idx[m], h.idx[c]
		c = m
	}
	return top
}

// refRoutedOrderBy returns snapshot indices of the routed keys in the
// cleaning policy's order, by a full comparison sort.
func refRoutedOrderBy(snap *stats.Snapshot, policy CleanPolicy) []int {
	var idx []int
	for i, ks := range snap.Keys {
		if ks.Routed() {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := snap.Keys[idx[a]], snap.Keys[idx[b]]
		switch policy {
		case CleanLargestMem:
			if ka.Mem != kb.Mem {
				return ka.Mem > kb.Mem
			}
		case CleanByKey:
		default:
			if ka.Mem != kb.Mem {
				return ka.Mem < kb.Mem
			}
		}
		return ka.Key < kb.Key
	})
	return idx
}

func refCleanN(st *refState, routed []int, n int) {
	if n > len(routed) {
		n = len(routed)
	}
	for _, i := range routed[:n] {
		k := &st.keys[i]
		if k.cur != k.hash {
			st.loads[k.cur] -= k.cost
			k.cur = k.hash
			st.loads[k.hash] += k.cost
		}
	}
}

// refTrial is one Mixed/MixedBF trial: clean n routed keys, then
// MinMig's phases.
func refTrial(name string, snap *stats.Snapshot, cfg Config, routed []int, n int) *Plan {
	st := refBuildState(snap, cfg)
	refCleanN(st, routed, n)
	st.initInstanceIndex()
	st.prepare(ByGamma)
	st.runLLFD(ByGamma)
	return st.finish(name, snap, time.Now(), cfg)
}

// refMixed is the reference Mixed loop. It returns the plan and how many
// of the MixedTrials trials ran, and reports exhaustion: every trial
// overflowed Amax although routed entries were still left to clean.
func refMixed(snap *stats.Snapshot, cfg Config, clean CleanPolicy) (plan *Plan, trials int, exhausted bool) {
	routed := refRoutedOrderBy(snap, clean)
	n := 0
	for t := 0; t < MixedTrials; t++ {
		plan = refTrial("Mixed", snap, cfg, routed, n)
		if cfg.TableMax <= 0 || plan.Table.Len() <= cfg.TableMax {
			return plan, t + 1, false
		}
		exhausted = n < len(routed)
		n = min(n+plan.Table.Len()-cfg.TableMax, len(routed))
	}
	return plan, MixedTrials, exhausted
}

// refPlan runs the reference implementation of planner p.
func refPlan(p Planner, snap *stats.Snapshot, cfg Config) *Plan {
	start := time.Now()
	switch p := p.(type) {
	case Simple:
		st := refBuildState(snap, cfg)
		st.initInstanceIndex()
		for i := range st.keys {
			st.disassociate(i)
		}
		for st.cand.len() > 0 {
			st.forceAssign(st.cand.pop(st))
		}
		return st.finish("Simple", snap, start, cfg)
	case LLFD:
		st := refBuildState(snap, cfg)
		st.noAdjust = p.NoAdjust
		st.initInstanceIndex()
		st.prepare(p.Psi)
		st.runLLFD(p.Psi)
		return st.finish("LLFD", snap, start, cfg)
	case MinTable:
		st := refBuildState(snap, cfg)
		for i := range st.keys {
			k := &st.keys[i]
			if k.cur != k.hash {
				st.loads[k.cur] -= k.cost
				k.cur = k.hash
				st.loads[k.hash] += k.cost
			}
		}
		st.initInstanceIndex()
		st.prepare(ByCost)
		st.runLLFD(ByCost)
		return st.finish("MinTable", snap, start, cfg)
	case MinMig:
		return refTrial("MinMig", snap, cfg, nil, 0)
	case Mixed:
		plan, _, _ := refMixed(snap, cfg, p.Clean)
		return plan
	case MixedBF:
		routed := refRoutedOrderBy(snap, CleanSmallestMem)
		stride := 1
		if p.MaxTrials > 0 && len(routed) > p.MaxTrials {
			stride = (len(routed) + p.MaxTrials - 1) / p.MaxTrials
		}
		var best *Plan
		for n := 0; n <= len(routed); n += stride {
			if pl := refTrial("MixedBF", snap, cfg, routed, n); better(pl, best, cfg) {
				best = pl
			}
		}
		return best
	}
	panic("balance: no reference for " + p.Name())
}
