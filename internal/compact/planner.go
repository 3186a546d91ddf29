package compact

import (
	"sort"
	"time"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Planner is the Mixed algorithm adapted to the compact representation
// (§IV-A). Planning happens at vector granularity: a vector's Count keys
// share one discretized (cost, mem) pair, so load arithmetic moves whole
// unit blocks; vectors split when only part of a block fits. The final
// vector-level result is materialized back onto real keys, charging
// migration only for keys whose destination actually changed.
type Planner struct {
	// R is the degree of discretization (power of two; 1 = exact values).
	R int64
}

// Name implements balance.Planner.
func (p Planner) Name() string { return "CompactMixed" }

// unit is a (possibly split) slice of a vector assigned to one instance.
type unit struct {
	vec   *Vector
	dest  int // -1 while in the candidate set
	count int64
}

// vplan is the vector-granularity working state.
type vplan struct {
	nd    int
	loads []int64
	lmax  float64
	units []*unit
	cand  []*unit
	beta  float64
}

// Plan implements balance.Planner: the adapted Mixed loop — clean n
// smallest-memory routed keys, disassociate by γ from overloaded
// instances, least-load-fit the candidates, and retry with a deeper
// clean while the resulting table exceeds Amax.
func (p Planner) Plan(snap *stats.Snapshot, cfg balance.Config) *balance.Plan {
	start := time.Now()
	R := p.R
	if R < 1 {
		R = 1
	}
	sp := Build(snap, R)
	n := int64(0)
	var plan *balance.Plan
	for t := 0; t < balance.MixedTrials; t++ {
		vp := newVplan(sp, cfg)
		vp.clean(sp, n)
		vp.prepare()
		vp.assignAll()
		plan = materialize(sp, vp, cfg)
		if cfg.TableMax <= 0 {
			break
		}
		over := int64(plan.Table.Len() - cfg.TableMax)
		if over <= 0 {
			break
		}
		n += over
	}
	plan.Algorithm = "CompactMixed"
	plan.GenTime = time.Since(start)
	return plan
}

func newVplan(sp *Space, cfg balance.Config) *vplan {
	nd := sp.snap.ND
	vp := &vplan{nd: nd, loads: make([]int64, nd), beta: cfg.Beta}
	var total int64
	for d, p := range sp.snap.Pinned {
		vp.loads[d] = p
		total += p
	}
	for _, v := range sp.Vectors {
		u := &unit{vec: v, dest: v.Cur, count: v.Count}
		vp.units = append(vp.units, u)
		vp.loads[v.Cur] += v.Cost * v.Count
		total += v.Cost * v.Count
	}
	vp.lmax = (1 + cfg.ThetaMax) * float64(total) / float64(nd)
	return vp
}

// clean implements Phase I: walk routed vectors (Cur ≠ Hash) in
// smallest-memory-first order and send up to n keys back to their hash
// destinations, splitting the last vector if needed. The move is
// virtual: d′ changes, migration is charged at materialization.
func (vp *vplan) clean(sp *Space, n int64) {
	if n <= 0 {
		return
	}
	routed := make([]*unit, 0)
	for _, u := range vp.units {
		if u.vec.Cur != u.vec.Hash {
			routed = append(routed, u)
		}
	}
	sort.Slice(routed, func(a, b int) bool {
		va, vb := routed[a].vec, routed[b].vec
		if va.Mem != vb.Mem {
			return va.Mem < vb.Mem
		}
		if va.Cost != vb.Cost {
			return va.Cost < vb.Cost
		}
		if va.Cur != vb.Cur {
			return va.Cur < vb.Cur
		}
		return va.Hash < vb.Hash
	})
	for _, u := range routed {
		if n <= 0 {
			return
		}
		take := u.count
		if take > n {
			take = n
		}
		vp.moveUnits(u, u.vec.Hash, take)
		n -= take
	}
}

// moveUnits retargets `take` keys of unit u to dest, splitting u when
// take < u.count.
func (vp *vplan) moveUnits(u *unit, dest int, take int64) {
	if take <= 0 || u.dest == dest {
		return
	}
	if take >= u.count {
		vp.loads[u.dest] -= u.vec.Cost * u.count
		vp.loads[dest] += u.vec.Cost * u.count
		u.dest = dest
		return
	}
	moved := &unit{vec: u.vec, dest: dest, count: take}
	u.count -= take
	vp.units = append(vp.units, moved)
	vp.loads[u.dest] -= u.vec.Cost * take
	vp.loads[dest] += u.vec.Cost * take
}

// prepare implements Phase II: for each overloaded instance,
// disassociate vector units in largest-γ-first order (setting d′ = nil)
// until the load estimate drops to Lmax.
func (vp *vplan) prepare() {
	for d := 0; d < vp.nd; d++ {
		if float64(vp.loads[d]) <= vp.lmax {
			continue
		}
		var local []*unit
		for _, u := range vp.units {
			if u.dest == d {
				local = append(local, u)
			}
		}
		sort.Slice(local, func(a, b int) bool {
			ga, gb := local[a].vec.Gamma(vp.beta), local[b].vec.Gamma(vp.beta)
			if ga != gb {
				return ga > gb
			}
			return local[a].vec.Cost > local[b].vec.Cost
		})
		for _, u := range local {
			over := float64(vp.loads[d]) - vp.lmax
			if over <= 0 {
				break
			}
			// Units needed to shed the overload; split so we do not
			// strip more than necessary.
			need := int64(over/float64(u.vec.Cost)) + 1
			if need > u.count {
				need = u.count
			}
			vp.detach(u, need)
		}
	}
}

// detach moves `take` keys of u into the candidate set (d′ = nil).
func (vp *vplan) detach(u *unit, take int64) {
	if take <= 0 {
		return
	}
	if take >= u.count {
		vp.loads[u.dest] -= u.vec.Cost * u.count
		u.dest = -1
		vp.cand = append(vp.cand, u)
		return
	}
	det := &unit{vec: u.vec, dest: -1, count: take}
	u.count -= take
	vp.loads[u.dest] -= u.vec.Cost * take
	vp.units = append(vp.units, det)
	vp.cand = append(vp.cand, det)
}

// assignAll implements the adapted Phase III: candidates in descending
// per-key cost, each block least-load-fitted with splitting — as many
// keys as fit under Lmax go to the least-loaded instance, the remainder
// re-queues. Blocks that fit nowhere go to the least-loaded instance
// whole (the force-assign of the key-level LLFD).
func (vp *vplan) assignAll() {
	sort.Slice(vp.cand, func(a, b int) bool {
		if vp.cand[a].vec.Cost != vp.cand[b].vec.Cost {
			return vp.cand[a].vec.Cost > vp.cand[b].vec.Cost
		}
		return vp.cand[a].vec.Mem < vp.cand[b].vec.Mem
	})
	queue := append([]*unit(nil), vp.cand...)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if u.count == 0 {
			continue
		}
		d := vp.leastLoaded()
		room := vp.lmax - float64(vp.loads[d])
		fit := int64(room / float64(u.vec.Cost))
		if fit <= 0 {
			// Nothing fits anywhere (least-loaded is fullest fit):
			// force the whole block onto d.
			vp.place(u, d, u.count)
			continue
		}
		if fit >= u.count {
			vp.place(u, d, u.count)
			continue
		}
		// Split: place what fits, re-queue the rest.
		rest := &unit{vec: u.vec, dest: -1, count: u.count - fit}
		u.count = fit
		vp.units = append(vp.units, rest)
		vp.place(u, d, fit)
		queue = append(queue, rest)
	}
	vp.cand = nil
}

func (vp *vplan) place(u *unit, d int, cnt int64) {
	u.dest = d
	vp.loads[d] += u.vec.Cost * cnt
}

func (vp *vplan) leastLoaded() int {
	best, bl := 0, vp.loads[0]
	for d := 1; d < vp.nd; d++ {
		if vp.loads[d] < bl {
			best, bl = d, vp.loads[d]
		}
	}
	return best
}

// materialize maps the vector-level result back onto real keys (§IV-A
// Phase III adaptation): per vector, tally how many keys each
// destination received; keys staying on the vector's current instance
// are preferred (no migration), the remainder are picked in snapshot
// order and added to Δ(F, F′). The routing table receives every key
// whose final destination differs from its hash.
func materialize(sp *Space, vp *vplan, cfg balance.Config) *balance.Plan {
	plan := &balance.Plan{
		Table:    route.NewTable(),
		MoveDest: make(map[tuple.Key]int),
		Loads:    make([]int64, vp.nd),
	}
	copy(plan.Loads, sp.snap.Pinned)
	// Group units per vector.
	perVec := make(map[*Vector][]*unit, len(sp.Vectors))
	for _, u := range vp.units {
		if u.count > 0 {
			perVec[u.vec] = append(perVec[u.vec], u)
		}
	}
	for _, v := range sp.Vectors {
		units := perVec[v]
		// wants[d] = number of v's keys that must end on instance d.
		wants := make(map[int]int64, len(units))
		for _, u := range units {
			d := u.dest
			if d < 0 {
				d = v.Cur // defensive: unassigned candidates stay put
			}
			wants[d] += u.count
		}
		// Stable key order; give the "stay" destination first pick so
		// migration is minimized within the vector.
		rem := append([]int(nil), v.keyIdx...)
		if wants[v.Cur] > 0 {
			take := wants[v.Cur]
			assignKeys(sp, plan, rem[:take], v.Cur)
			rem = rem[take:]
			delete(wants, v.Cur)
		}
		dests := make([]int, 0, len(wants))
		for d := range wants {
			dests = append(dests, d)
		}
		sort.Ints(dests)
		for _, d := range dests {
			take := wants[d]
			assignKeys(sp, plan, rem[:take], d)
			rem = rem[take:]
		}
	}
	plan.MaxTheta = stats.MaxTheta(plan.Loads)
	plan.OverloadTheta = stats.OverloadTheta(plan.Loads)
	plan.Feasible = plan.OverloadTheta <= cfg.ThetaMax+1e-9 &&
		(cfg.TableMax <= 0 || plan.Table.Len() <= cfg.TableMax)
	sort.Slice(plan.Moved, func(a, b int) bool { return plan.Moved[a] < plan.Moved[b] })
	return plan
}

// assignKeys finalizes destination d for the given snapshot key indices.
func assignKeys(sp *Space, plan *balance.Plan, idxs []int, d int) {
	for _, i := range idxs {
		ks := sp.snap.Keys[i]
		plan.Loads[d] += ks.Cost
		if d != ks.Hash {
			plan.Table.Put(ks.Key, d)
		}
		if d != ks.Dest {
			plan.Moved = append(plan.Moved, ks.Key)
			plan.MoveDest[ks.Key] = d
			plan.MigrationCost += ks.Mem
		}
	}
}
