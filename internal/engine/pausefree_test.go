package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Tests of key migration: ApplyPlan's batched per-task barrier rounds
// must be bit-identical to a direct key-by-key move, and a plan applied
// between every pair of intervals fed by concurrent feeders must lose and
// duplicate nothing (run under -race by the suite).

// refApplyPlan is the reference ApplyPlan is pinned against: the direct
// move on an idle stage — each migrating key's window extracted from its
// owner and injected at its destination, tracker history carried along,
// the transfer charged to both ends, then the plan's table installed.
// No task barriers, no per-task batching, no state codec.
func refApplyPlan(s *Stage, plan *balance.Plan) int64 {
	ar := s.AssignmentRouter()
	old := ar.Assignment()
	var moved int64
	for _, k := range plan.Moved {
		src, dst := old.Dest(k), plan.MoveDest[k]
		if src == dst {
			continue
		}
		sc, dc := s.CtxOf(src), s.CtxOf(dst)
		var m state.Migrated
		var mem int64
		sc.Store.Dir().Move([]tuple.Key{k}, func(_ int, x state.Migrated, xm int64) { m, mem = x, xm })
		if m.Size > 0 {
			dc.Store.Inject(m)
		}
		if mem > 0 {
			dc.Tracker.AdoptKey(k, mem)
		}
		s.MigPenalty[src] += m.Size
		s.MigPenalty[dst] += m.Size
		moved += m.Size
	}
	ar.Swap(route.NewAssignment(plan.Table.Clone(), old.Hasher()))
	return moved
}

// TestPauseFreeMatchesPausingOracle pins ApplyPlan's hook-time
// equivalence: the same spout and the same randomized plan schedule,
// applied once through ApplyPlan and once through refApplyPlan,
// produce bit-identical interval series, final harvest
// snapshots, routing tables and state placement.
func TestPauseFreeMatchesPausingOracle(t *testing.T) {
	run := func(live bool) (*Engine, []*stats.Snapshot, *Stage) {
		gen := workload.NewZipfStream(1500, 0.9, 0, 8000, 41)
		st := statefulStage(4, 2)
		cfg := DefaultConfig()
		cfg.Budget = 8000
		e := NewBatch(gen.NextBatch, cfg, st)
		// Seeded random plan schedule: each interval (with probability
		// 3/4) roughly 6% of the harvested keys move to a random other
		// instance. Both runs see identical snapshots, so identical
		// seeds yield identical schedules — the inductive step of the
		// equivalence pin.
		rng := rand.New(rand.NewSource(97))
		snaps := observeAll(e)
		e.AddSnapshotHook(0, func(e *Engine, si int, snap *stats.Snapshot) *Rebalance {
			if len(snap.Keys) == 0 || rng.Intn(4) == 0 {
				return nil
			}
			stage := e.Stages[si]
			asg := stage.AssignmentRouter().Assignment()
			tab := asg.Table().Clone()
			plan := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
			for _, ks := range snap.Keys {
				if rng.Intn(16) != 0 {
					continue
				}
				dst := (asg.Dest(ks.Key) + 1 + rng.Intn(snap.ND-1)) % snap.ND
				tab.Put(ks.Key, dst)
				plan.Moved = append(plan.Moved, ks.Key)
				plan.MoveDest[ks.Key] = dst
			}
			if len(plan.Moved) == 0 {
				return nil
			}
			if !live {
				return &Rebalance{Plan: plan, Moved: refApplyPlan(stage, plan)}
			}
			moved, err := stage.ApplyPlan(plan)
			if err != nil {
				t.Fatalf("ApplyPlan: %v", err)
			}
			return &Rebalance{Plan: plan, Moved: moved}
		})
		e.Run(8)
		return e, snaps, st
	}

	oracle, oracleSnaps, ost := run(false)
	defer oracle.Stop()
	live, liveSnaps, lst := run(true)
	defer live.Stop()

	for i := range oracle.Recorder.Series {
		a, b := oracle.Recorder.Series[i], live.Recorder.Series[i]
		a.PlanMs, b.PlanMs = 0, 0
		if a != b {
			t.Fatalf("interval %d diverges:\nreference %+v\nlive      %+v", i, a, b)
		}
	}
	os, ls := oracleSnaps[0], liveSnaps[0]
	if len(os.Keys) != len(ls.Keys) {
		t.Fatalf("snapshot sizes %d ≠ %d", len(ls.Keys), len(os.Keys))
	}
	for i := range os.Keys {
		if os.Keys[i] != ls.Keys[i] {
			t.Fatalf("snapshot entry %d: reference %+v, live %+v", i, os.Keys[i], ls.Keys[i])
		}
	}
	otab := tableMap(ost.AssignmentRouter().Assignment().Table())
	ltab := tableMap(lst.AssignmentRouter().Assignment().Table())
	if len(otab) != len(ltab) {
		t.Fatalf("table sizes %d ≠ %d", len(ltab), len(otab))
	}
	for k, d := range otab {
		if ltab[k] != d {
			t.Fatalf("table entry %d: reference %d, live %d", k, d, ltab[k])
		}
	}
	for d := 0; d < 4; d++ {
		if a, b := ost.StoreOf(d).TotalSize(), lst.StoreOf(d).TotalSize(); a != b {
			t.Fatalf("instance %d state: reference %d, live %d", d, a, b)
		}
	}
	if len(ltab) == 0 {
		t.Fatal("the live run never published a plan")
	}
}

// forwardCountOp counts like countingOp and streams every tuple
// downstream — the stage-0 operator of the pipelined stress topology.
type forwardCountOp struct {
	countingOp
}

func (f *forwardCountOp) Process(ctx *TaskCtx, tp tuple.Tuple) {
	f.countingOp.Process(ctx, tp)
	ctx.Emit(tp)
}

// TestPauseFreeStressContinuousPlans is the -race stress of plan
// application end to end: each interval four feeder goroutines emit into
// a pipelined two-stage topology, the stages close in order, and a
// rebalance plan is applied to one of them, alternating. Every tuple
// must be processed exactly once per stage — zero loss, no
// double-delivery — and every key's state must sit exactly at its final
// home.
func TestPauseFreeStressContinuousPlans(t *testing.T) {
	const (
		nd        = 4
		feeders   = 4
		keyDomain = 100
		chunk     = 64
		chunks    = 8  // per feeder per interval
		plans     = 12 // one per interval
	)
	// A window longer than the run: every fed tuple's state is still
	// live at the end.
	const window = plans + 2
	fleet0 := make([]*forwardCountOp, nd)
	st0 := NewStage("pf-up", nd, func(id int) Operator {
		fleet0[id] = &forwardCountOp{countingOp{counts: make(map[tuple.Key]int64)}}
		return fleet0[id]
	}, window, newAsgRouter(nd))
	defer st0.Stop()
	fleet1 := make([]*countingOp, nd)
	st1 := NewStage("pf-down", nd, func(id int) Operator {
		fleet1[id] = &countingOp{counts: make(map[tuple.Key]int64)}
		return fleet1[id]
	}, window, newAsgRouter(nd))
	defer st1.Stop()
	st0.SetDownstream(st1)

	// Preload both stages so every plan migrates real state.
	pre := make([]tuple.Tuple, 2*keyDomain)
	for i := range pre {
		pre[i] = tuple.New(tuple.Key(i%keyDomain), i)
	}
	st0.FeedBatch(pre)
	st0.Barrier()
	st1.Barrier()

	// Four feeders drawing disjoint shares of one sequence; after each
	// interval a different seventh of the key domain rotates one
	// instance over, alternating stages.
	var seq atomic.Uint64
	draw := func(dst []tuple.Tuple) int {
		for i := range dst {
			n := seq.Add(1) - 1
			dst[i] = tuple.New(tuple.Key(n%keyDomain), n)
		}
		return len(dst)
	}
	for i := range plans {
		stressInterval(t, int64(i), func() { feedConcurrently(st0, draw, feeders, chunks, chunk) }, st0, st1)
		st := []*Stage{st0, st1}[i%2]
		if _, err := st.ApplyPlan(stripePlan(st, tuple.Key(i%7), 7, keyDomain)); err != nil {
			t.Fatalf("ApplyPlan: %v", err)
		}
		checkOneOwner(t, st, nil, fmt.Sprintf("after plan %d", i))
	}

	fedPerKey := make(map[tuple.Key]int64)
	for i := range pre {
		fedPerKey[pre[i].Key]++
	}
	total := int64(seq.Load())
	for n := int64(0); n < total; n++ {
		fedPerKey[tuple.Key(n%int64(keyDomain))]++
	}

	got0 := make(map[tuple.Key]int64)
	for _, op := range fleet0 {
		for k, n := range op.counts {
			got0[k] += n
		}
	}
	got1 := mergedCounts(fleet1)
	for k, n := range fedPerKey {
		if got0[k] != n {
			t.Fatalf("stage 0 processed key %d %d times, fed %d (loss or double-delivery)", k, got0[k], n)
		}
		if got1[k] != n {
			t.Fatalf("stage 1 processed key %d %d times, stage 0 emitted %d", k, got1[k], n)
		}
	}
	if len(got0) != len(fedPerKey) || len(got1) != len(fedPerKey) {
		t.Fatalf("key cardinality: fed %d, stage0 %d, stage1 %d", len(fedPerKey), len(got0), len(got1))
	}

	// Placement: every key's state sits exactly at its current home on
	// both stages, and volumes add up to the fed totals.
	for si, st := range []*Stage{st0, st1} {
		checkOneOwner(t, st, nil, fmt.Sprintf("stage %d after the plans", si))
		if got, want := liveStateTotal(st), int64(len(pre))+total; got != want {
			t.Fatalf("stage %d total state %d, want %d", si, got, want)
		}
	}
}

// TestPlanTasksSendAndReceive pins a plan whose tasks both send and
// receive — k1 A→B, k2 B→A, k3 A→C, so A and B each extract before they
// inject — applied back and forth between intervals fed by four
// concurrent feeders. Every application is checked against the exact
// per-key sizes its sources held; every tuple must be counted exactly
// once, every key's state must sit at F′(k) and nowhere else, and
// MigPenalty must charge each move's state to both its ends.
func TestPlanTasksSendAndReceive(t *testing.T) {
	const (
		nd        = 4
		feeders   = 4
		keyDomain = 60
		chunk     = 64
		chunks    = 8 // per feeder per interval
		rounds    = 8
	)
	fleet := make([]*countingOp, nd)
	st := NewStage("sr", nd, func(id int) Operator {
		fleet[id] = &countingOp{counts: make(map[tuple.Key]int64)}
		return fleet[id]
	}, rounds+2, newAsgRouter(nd)) // a window longer than the run
	defer st.Stop()

	// A homes k1 and k3, B homes k2, C is a third instance.
	asg := st.AssignmentRouter().Assignment()
	byHome := make([][]tuple.Key, nd)
	for k := tuple.Key(0); k < keyDomain; k++ {
		byHome[asg.Dest(k)] = append(byHome[asg.Dest(k)], k)
	}
	const A, B, C = 0, 1, 2
	if len(byHome[A]) < 2 || len(byHome[B]) < 1 {
		t.Fatalf("key domain too small for the plan: %v", byHome)
	}
	k1, k2, k3 := byHome[A][0], byHome[B][0], byHome[A][1]
	type move struct {
		k        tuple.Key
		src, dst int
	}
	forward := []move{{k1, A, B}, {k2, B, A}, {k3, A, C}}
	backward := []move{{k1, B, A}, {k2, A, B}, {k3, C, A}}

	// apply runs one direction of the plan on the sealed stage and checks
	// where each key's state landed, MigPenalty and the returned volume
	// against the per-key sizes the sources held.
	apply := func(moves []move) {
		want := make(map[tuple.Key]int64)
		for _, mv := range moves {
			want[mv.k] = sizeOf(st.StoreOf(mv.src), mv.k)
		}
		cur := st.AssignmentRouter().Assignment()
		tab := cur.Table().Clone()
		plan := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
		for _, mv := range moves {
			tab.Put(mv.k, mv.dst)
			plan.Moved = append(plan.Moved, mv.k)
			plan.MoveDest[mv.k] = mv.dst
		}
		clear(st.MigPenalty)
		moved, err := st.ApplyPlan(plan)
		if err != nil {
			t.Errorf("ApplyPlan: %v", err)
			return
		}
		penalty := make([]int64, nd)
		var total int64
		for _, mv := range moves {
			if got := sizeOf(st.StoreOf(mv.dst), mv.k); got != want[mv.k] {
				t.Errorf("key %d holds %d state units on %d, its source held %d", mv.k, got, mv.dst, want[mv.k])
			}
			if got := sizeOf(st.StoreOf(mv.src), mv.k); got != 0 {
				t.Errorf("key %d left %d state units on its source %d", mv.k, got, mv.src)
			}
			penalty[mv.src] += want[mv.k]
			penalty[mv.dst] += want[mv.k]
			total += want[mv.k]
		}
		if !slices.Equal(st.MigPenalty, penalty) {
			t.Errorf("MigPenalty %v, per-key reference %v", st.MigPenalty, penalty)
		}
		if moved != total {
			t.Errorf("ApplyPlan moved %d, per-key reference %d", moved, total)
		}
	}

	// Preload distinct state per key, then apply the plan back and forth,
	// once before the first interval and once after every interval.
	pre := make([]tuple.Tuple, 0, 4*keyDomain)
	for k := tuple.Key(0); k < keyDomain; k++ {
		for i := 0; i <= int(k%4); i++ {
			pre = append(pre, tuple.Tuple{Key: k, Cost: 1, StateSize: int64(1 + k%3)})
		}
	}
	st.FeedBatch(pre)
	st.Barrier()
	apply(forward)
	checkOneOwner(t, st, nil, "after the first plan")
	var seq atomic.Uint64
	draw := func(dst []tuple.Tuple) int {
		for i := range dst {
			n := seq.Add(1) - 1
			dst[i] = tuple.New(tuple.Key(n%keyDomain), n)
		}
		return len(dst)
	}
	for i := 0; i < rounds && !t.Failed(); i++ {
		stressInterval(t, int64(i), func() { feedConcurrently(st, draw, feeders, chunks, chunk) }, st)
		if i%2 == 0 {
			apply(backward)
		} else {
			apply(forward)
		}
	}
	if t.Failed() {
		return
	}

	fed := make(map[tuple.Key]int64)
	var wantState int64
	for _, tp := range pre {
		fed[tp.Key]++
		wantState += tp.StateSize
	}
	total := int64(seq.Load())
	for n := int64(0); n < total; n++ {
		fed[tuple.Key(n%keyDomain)]++
	}
	wantState += total
	got := mergedCounts(fleet)
	for k := tuple.Key(0); k < keyDomain; k++ {
		if got[k] != fed[k] {
			t.Fatalf("key %d processed %d times, fed %d (loss or double-delivery)", k, got[k], fed[k])
		}
	}
	cur := st.AssignmentRouter().Assignment()
	var state int64
	for k := tuple.Key(0); k < keyDomain; k++ {
		home := cur.Dest(k)
		for d := 0; d < nd; d++ {
			sz := sizeOf(st.StoreOf(d), k)
			state += sz
			if d != home && sz != 0 {
				t.Fatalf("key %d left %d state units on instance %d (F′(k) = %d)", k, sz, d, home)
			}
		}
	}
	if state != wantState {
		t.Fatalf("total state %d, want %d", state, wantState)
	}
	checkOneOwner(t, st, nil, "after the plans")
}

// tableMap copies a routing table into a map.
func tableMap(t *route.Table) map[tuple.Key]int {
	m := map[tuple.Key]int{}
	for _, k := range t.Keys() {
		m[k], _ = t.Lookup(k)
	}
	return m
}
