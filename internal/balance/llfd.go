package balance

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/stats"
)

// planState is the mutable working set shared by every planner. The
// per-key records are the snapshot's own, read in place; the state adds
// a working destination per key, the per-instance load estimates L̂(d),
// the per-instance key lists and the candidate heap C. Every slice is
// kept across plans (see statePool) and grows on demand.
type planState struct {
	pr    *Problem
	nd    int
	keys  []stats.KeyStat // the snapshot's records; never written
	beta  float64
	loads []int64
	lmax  float64 // the problem's Lmax
	// cur[i] is key i's working destination; -1 while it is in the
	// candidate set.
	cur []int32
	// pow[c] memoizes c^β, the numerator of γ(k,w), for each cost
	// c < powMemo a ByGamma comparison has inspected (powUnset before);
	// powBeta is the β it holds. Costs are tuple counts, so a plan's
	// keys share few small costs, and the memo survives plans with the
	// same β.
	pow     []float64
	powBeta float64
	// byInst[d] holds indices of keys whose working destination is d.
	// Entries go stale when keys move; scans revalidate against cur.
	byInst  [][]int32
	indexed bool
	// cand is the candidate set C as a max-heap ordered by cost
	// (Algorithm 1 pops keys in descending c(k)).
	cand []int32
	// ops counts Adjust attempts, bounding pathological exchange
	// cascades; see forceAssign.
	ops int
	// sel is the selection scratch of exchangeSet, order that of
	// instancesByLoad, routed the cleaning order of Mixed's trials.
	sel    []int32
	order  []int
	routed []int32
	// noAdjust disables exchangeable-set repair (ablation hook).
	noAdjust bool
}

// powMemo bounds the costs whose c^β the planner state memoizes;
// powUnset marks a slot no comparison has filled yet (c^β is never
// negative for c > 0).
const (
	powMemo  = 1024
	powUnset = -1
)

// statePool recycles planner state across plans, so a controller that
// plans every interval allocates nothing sized by the population. A
// pooled state holds no reference to any snapshot.
var statePool = sync.Pool{New: func() any { return new(planState) }}

// newState takes a state from the pool for one plan; load it before
// use.
func newState() *planState {
	st := statePool.Get().(*planState)
	st.noAdjust = false
	return st
}

// release returns the state to the pool.
func (st *planState) release() {
	st.pr, st.keys = nil, nil
	statePool.Put(st)
}

// load resets the working assignment to the problem's: every key on
// its recorded destination over the problem's loads, the candidate set
// empty. The c^β memo survives unless β changed, so Mixed's later
// trials and the next plan do not recompute it.
func (st *planState) load(pr *Problem) {
	st.pr, st.nd, st.keys, st.beta, st.lmax = pr, pr.snap.ND, pr.snap.Keys, pr.cfg.Beta, pr.Lmax
	if len(st.pow) == 0 || math.Float64bits(st.powBeta) != math.Float64bits(st.beta) {
		st.pow = slices.Grow(st.pow[:0], powMemo)[:powMemo]
		for c := range st.pow {
			st.pow[c] = powUnset
		}
		st.powBeta = st.beta
	}
	st.loads = append(st.loads[:0], pr.Loads...)
	st.cur = slices.Grow(st.cur[:0], len(st.keys))[:len(st.keys)]
	for i := range st.keys {
		st.cur[i] = int32(st.keys[i].Dest)
	}
	st.cand = st.cand[:0]
	st.ops = 0
	st.indexed = false
}

// moveHome virtually moves key i back to its hash destination (the
// cleaning step of MinTable and Mixed). Only the working destination
// changes; migration is charged at finish time if the final destination
// really differs from the recorded one. Call before index.
func (st *planState) moveHome(i int32) {
	ks := &st.keys[i]
	if c := st.cur[i]; int(c) != ks.Hash {
		st.loads[c] -= ks.Cost
		st.cur[i] = int32(ks.Hash)
		st.loads[ks.Hash] += ks.Cost
	}
}

// index builds byInst from the current working destinations.
func (st *planState) index() {
	for len(st.byInst) < st.nd {
		st.byInst = append(st.byInst, nil)
	}
	for d := range st.byInst {
		st.byInst[d] = st.byInst[d][:0]
	}
	for i, d := range st.cur {
		if d >= 0 {
			st.byInst[d] = append(st.byInst[d], int32(i))
		}
	}
	st.indexed = true
}

// gamma returns key i's γ(k,w), exactly as Gamma computes it, with
// c^β taken from the memo when the cost is small.
func (st *planState) gamma(i int32) float64 {
	ks := &st.keys[i]
	c := ks.Cost
	if c <= 0 || c >= powMemo {
		return Gamma(c, ks.Mem, st.beta)
	}
	p := st.pow[c]
	if p == powUnset {
		p = math.Pow(float64(c), st.beta)
		st.pow[c] = p
	}
	return perMem(p, ks.Mem)
}

// less orders key a before key b under the criterion (descending
// preference): γ first for ByGamma, then cost, then ascending key.
func (st *planState) less(psi Criterion, a, b int32) bool {
	if psi == ByGamma {
		if ga, gb := st.gamma(a), st.gamma(b); ga != gb {
			return ga > gb
		}
	}
	ka, kb := &st.keys[a], &st.keys[b]
	if ka.Cost != kb.Cost {
		return ka.Cost > kb.Cost
	}
	return ka.Key < kb.Key
}

// The heaps below are binary max-heaps of key indices under less: the
// candidate set under ByCost, a selection under the run's ψ.

func (st *planState) siftDown(h []int32, psi Criterion, c int) {
	for {
		l, r := 2*c+1, 2*c+2
		if l >= len(h) {
			return
		}
		m := l
		if r < len(h) && st.less(psi, h[r], h[l]) {
			m = r
		}
		if !st.less(psi, h[m], h[c]) {
			return
		}
		h[c], h[m] = h[m], h[c]
		c = m
	}
}

func (st *planState) heapify(h []int32, psi Criterion) {
	for c := len(h)/2 - 1; c >= 0; c-- {
		st.siftDown(h, psi, c)
	}
}

// heapPop moves the heap's first key under ψ to h[len(h)-1] and returns
// it with the heap one shorter: the array keeps every index, so popping
// from an instance's own list loses none.
func (st *planState) heapPop(h []int32, psi Criterion) (int32, []int32) {
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	st.siftDown(h[:last], psi, 0)
	return h[last], h[:last]
}

func (st *planState) pushCand(i int32) {
	h := append(st.cand, i)
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !st.less(ByCost, h[c], h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
	st.cand = h
}

func (st *planState) popCand() int32 {
	var i int32
	i, st.cand = st.heapPop(st.cand, ByCost)
	return i
}

// disassociate removes key i from its working instance and pushes it
// into the candidate set.
func (st *planState) disassociate(i int32) {
	c := st.cur[i]
	if c < 0 {
		return
	}
	st.loads[c] -= st.keys[i].Cost
	st.cur[i] = -1
	st.pushCand(i)
}

// assign binds key i to instance d and updates the load estimate.
func (st *planState) assign(i int32, d int) {
	st.cur[i] = int32(d)
	st.loads[d] += st.keys[i].Cost
	if st.indexed {
		st.byInst[d] = append(st.byInst[d], i)
	}
}

// instKeys returns the live key indices currently on instance d,
// compacting stale entries in place.
func (st *planState) instKeys(d int) []int32 {
	live := st.byInst[d][:0]
	for _, i := range st.byInst[d] {
		if int(st.cur[i]) == d {
			live = append(live, i)
		}
	}
	st.byInst[d] = live
	return live
}

// instancesByLoad returns instance ids ordered by ascending L̂(d)
// (Algorithm 1 line 4), with id tie-break for determinism. The result
// is scratch, valid until the next call.
func (st *planState) instancesByLoad() []int {
	ds := st.order[:0]
	for d := 0; d < st.nd; d++ {
		ds = append(ds, d)
	}
	slices.SortFunc(ds, func(a, b int) int {
		if c := cmp.Compare(st.loads[a], st.loads[b]); c != 0 {
			return c
		}
		return a - b
	})
	st.order = ds
	return ds
}

// prepare implements Phase II: walk every overloaded instance and
// disassociate keys — chosen by ψ — until the instance's estimated load
// drops to Lmax or it runs out of keys (§III, "Preparing"). Shedding
// from one instance leaves the others' loads alone, so testing each
// instance as it comes up visits exactly the initially overloaded ones.
func (st *planState) prepare(psi Criterion) {
	for d := range st.loads {
		if float64(st.loads[d]) <= st.lmax {
			continue
		}
		h := st.instKeys(d)
		st.heapify(h, psi)
		for len(h) > 0 && float64(st.loads[d]) > st.lmax {
			var i int32
			i, h = st.heapPop(h, psi)
			st.disassociate(i)
		}
	}
}

// adjustBudgetFactor bounds the total number of Adjust attempts to
// adjustBudgetFactor·|K| + adjustBudgetFloor. Exchange cascades strictly
// decrease displaced-key costs, so the budget is a safety net rather
// than the usual exit path.
const (
	adjustBudgetFactor = 8
	adjustBudgetFloor  = 4096
)

// runLLFD implements Algorithm 1 (Least-Load Fit Decreasing): pop the
// costliest candidate, try instances in ascending load order, and let
// adjust repair re-overloading via exchangeable sets. Keys no instance
// accepts are force-assigned to the least-loaded instance so the
// algorithm always terminates with a total assignment.
func (st *planState) runLLFD(psi Criterion) {
	budget := adjustBudgetFactor*len(st.keys) + adjustBudgetFloor
	for len(st.cand) > 0 {
		i := st.popCand()
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
func (st *planState) forceAssign(i int32) {
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
func (st *planState) adjust(i int32, d int, psi Criterion) bool {
	cost := st.keys[i].Cost
	if float64(st.loads[d])+float64(cost) <= st.lmax {
		return true
	}
	if st.noAdjust {
		return false
	}
	e, ok := st.exchangeSet(i, d, psi)
	if !ok {
		return false
	}
	for _, j := range e {
		st.disassociate(j)
	}
	return float64(st.loads[d])+float64(cost) <= st.lmax
}

// exchangeSet builds E for key i arriving at instance d: candidates are
// keys on d with cost strictly below c(k) (condition ii), taken in ψ
// order until the projected load fits under Lmax (condition iii).
// Reports false when even the full eligible set cannot make room. The
// set is scratch, valid until the next call.
func (st *planState) exchangeSet(i int32, d int, psi Criterion) ([]int32, bool) {
	cost := st.keys[i].Cost
	need := float64(st.loads[d]) + float64(cost) - st.lmax
	eligible := st.sel[:0]
	var eligibleSum int64
	for _, j := range st.instKeys(d) {
		if c := st.keys[j].Cost; c < cost {
			eligible = append(eligible, j)
			eligibleSum += c
		}
	}
	st.sel = eligible
	if float64(eligibleSum) < need {
		return nil, false
	}
	st.heapify(eligible, psi)
	h := eligible
	var got float64
	for len(h) > 0 && got < need {
		var j int32
		j, h = st.heapPop(h, psi)
		got += float64(st.keys[j].Cost)
	}
	if got < need {
		return nil, false
	}
	// heapPop parked the taken keys behind the shrunken heap.
	return eligible[len(h):], true
}

// routedOrderBy appends to dst the indices of the keys currently
// holding routing-table entries (Dest ≠ Hash), in the cleaning
// criterion η's order: smallest memory first for the paper's policy.
func routedOrderBy(dst []int32, keys []stats.KeyStat, policy CleanPolicy) []int32 {
	for i := range keys {
		if keys[i].Routed() {
			dst = append(dst, int32(i))
		}
	}
	slices.SortFunc(dst, func(a, b int32) int {
		ka, kb := &keys[a], &keys[b]
		if policy != CleanByKey && ka.Mem != kb.Mem {
			if (ka.Mem > kb.Mem) == (policy == CleanLargestMem) {
				return -1
			}
			return 1
		}
		return cmp.Compare(ka.Key, kb.Key)
	})
	return dst
}

// finish summarizes the working assignment through the problem's
// Finish, timed from started.
func (st *planState) finish(name string, started time.Time) *Plan {
	p := st.pr.Finish(name, st.cur)
	p.GenTime = time.Since(started)
	return p
}
