package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Tests of serialized-state migration (StateWire mode): with the mode
// on, every migrated key's windowed state crosses a full
// state.Codec encode/decode round trip — the exact bytes a remote host
// would receive — and the run must stay bit-identical to the in-memory
// reference path the single-process engine pins.

// TestStateWireMatchesInMemory runs the same seeded randomized plan
// schedule (with a scale-out and a scale-in mixed in) twice, once with
// serialized-state migration and once through the in-memory reference,
// and requires identical interval series, harvest snapshots, routing
// tables and state placement. The wire run must actually serialize:
// its actuations move state (every moved key crosses the codec in that
// mode), and no ApplyPlan or ResizeStage returns a state-wire error.
func TestStateWireMatchesInMemory(t *testing.T) {
	run := func(wire bool) (*Engine, []*stats.Snapshot, *Stage, int64) {
		gen := workload.NewZipfStream(1500, 0.9, 0, 8000, 53)
		st := statefulStage(4, 2)
		cfg := DefaultConfig()
		cfg.Budget = 8000
		e := NewBatch(gen.NextBatch, cfg, st)
		st.SetStateWire(wire)
		if st.StateWire() != wire {
			t.Fatalf("stage state-wire = %v, want %v", st.StateWire(), wire)
		}
		var migrated int64
		rng := rand.New(rand.NewSource(131))
		round := 0
		snaps := observeAll(e)
		e.AddSnapshotHook(0, func(e *Engine, si int, snap *stats.Snapshot) *Rebalance {
			round++
			stage := e.Stages[si]
			// A fixed scale-out and scale-in in the schedule exercise the
			// resize migration path through the same serializer.
			if round == 3 || round == 6 {
				delta := 1
				if round == 6 {
					delta = -1
				}
				moved, err := e.ResizeStage(si, delta)
				if err != nil {
					t.Fatalf("ResizeStage(%d): %v", delta, err)
				}
				migrated += moved
				reb := &Rebalance{}
				if delta > 0 {
					reb.ScaledOut = 1
				} else {
					reb.ScaledIn = 1
				}
				return reb
			}
			if len(snap.Keys) == 0 || rng.Intn(4) == 0 {
				return nil
			}
			asg := stage.AssignmentRouter().Assignment()
			nd := stage.Instances()
			tab := asg.Table().Clone()
			plan := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
			for _, ks := range snap.Keys {
				if rng.Intn(16) != 0 {
					continue
				}
				dst := (asg.Dest(ks.Key) + 1 + rng.Intn(nd-1)) % nd
				tab.Put(ks.Key, dst)
				plan.Moved = append(plan.Moved, ks.Key)
				plan.MoveDest[ks.Key] = dst
			}
			if len(plan.Moved) == 0 {
				return nil
			}
			moved, err := stage.ApplyPlan(plan)
			if err != nil {
				t.Fatalf("ApplyPlan(wire=%v): %v", wire, err)
			}
			migrated += moved
			return &Rebalance{Plan: plan, Moved: moved}
		})
		e.Run(8)
		return e, snaps, st, migrated
	}

	ref, refSnaps, rst, refMigrated := run(false)
	defer ref.Stop()
	wired, wiredSnaps, wst, wireMigrated := run(true)
	defer wired.Stop()

	if wireMigrated == 0 || wireMigrated != refMigrated {
		t.Fatalf("wire run migrated %d state units, in-memory %d; the equivalence needs moved state", wireMigrated, refMigrated)
	}

	for i := range ref.Recorder.Series {
		a, b := ref.Recorder.Series[i], wired.Recorder.Series[i]
		a.PlanMs, b.PlanMs = 0, 0
		if a != b {
			t.Fatalf("interval %d diverges:\nin-memory  %+v\nserialized %+v", i, a, b)
		}
	}
	rs, ws := refSnaps[0], wiredSnaps[0]
	if len(rs.Keys) != len(ws.Keys) {
		t.Fatalf("snapshot sizes %d ≠ %d", len(ws.Keys), len(rs.Keys))
	}
	for i := range rs.Keys {
		if rs.Keys[i] != ws.Keys[i] {
			t.Fatalf("snapshot entry %d: in-memory %+v, serialized %+v", i, rs.Keys[i], ws.Keys[i])
		}
	}
	rtab := map[tuple.Key]int{}
	rst.AssignmentRouter().Assignment().Table().Each(func(k tuple.Key, d int) { rtab[k] = d })
	wtab := map[tuple.Key]int{}
	wst.AssignmentRouter().Assignment().Table().Each(func(k tuple.Key, d int) { wtab[k] = d })
	if len(rtab) != len(wtab) {
		t.Fatalf("table sizes %d ≠ %d", len(wtab), len(rtab))
	}
	for k, d := range rtab {
		if wtab[k] != d {
			t.Fatalf("table entry %d: in-memory %d, serialized %d", k, d, wtab[k])
		}
	}
	if rst.Instances() != wst.Instances() {
		t.Fatalf("instance counts %d ≠ %d", wst.Instances(), rst.Instances())
	}
	for d := 0; d < rst.Instances(); d++ {
		if a, b := rst.StoreOf(d).TotalSize(), wst.StoreOf(d).TotalSize(); a != b {
			t.Fatalf("instance %d state: in-memory %d, serialized %d", d, a, b)
		}
		if a, b := len(rst.StoreOf(d).Keys()), len(wst.StoreOf(d).Keys()); a != b {
			t.Fatalf("instance %d key count: in-memory %d, serialized %d", d, a, b)
		}
	}
}

// TestStateWireLiveFeeders is the -race stress of serialized-state
// migration around concurrent feeders: each interval four feeders emit
// into a pipelined two-stage topology with StateWire on, the stages
// close, and a rebalance plan is applied to one of them, alternating.
// Zero loss, no double-delivery, exact final placement, no state-wire
// error — the serializer runs between intervals fed at full fan-out.
func TestStateWireLiveFeeders(t *testing.T) {
	const (
		nd        = 4
		feeders   = 4
		keyDomain = 100
		chunk     = 64
		chunks    = 8 // per feeder per interval
		plans     = 8 // one per interval
	)
	const window = plans + 2 // longer than the run
	fleet0 := make([]*forwardCountOp, nd)
	st0 := NewStage("sw-up", nd, func(id int) Operator {
		fleet0[id] = &forwardCountOp{countingOp{counts: make(map[tuple.Key]int64)}}
		return fleet0[id]
	}, window, newAsgRouter(nd))
	defer st0.Stop()
	fleet1 := make([]*countingOp, nd)
	st1 := NewStage("sw-down", nd, func(id int) Operator {
		fleet1[id] = &countingOp{counts: make(map[tuple.Key]int64)}
		return fleet1[id]
	}, window, newAsgRouter(nd))
	defer st1.Stop()
	st0.SetDownstream(st1)
	for _, st := range []*Stage{st0, st1} {
		st.SetStateWire(true)
	}

	pre := make([]tuple.Tuple, 2*keyDomain)
	for i := range pre {
		pre[i] = tuple.New(tuple.Key(i%keyDomain), int64(i))
	}
	st0.FeedBatch(pre)
	st0.Barrier()
	st1.Barrier()

	var migrated int64
	var seq atomic.Uint64
	draw := func(dst []tuple.Tuple) int {
		for i := range dst {
			n := seq.Add(1) - 1
			dst[i] = tuple.New(tuple.Key(n%keyDomain), int64(n))
		}
		return len(dst)
	}
	for i := range plans {
		stressInterval(t, int64(i), func() { feedConcurrently(st0, draw, feeders, chunks, chunk) }, st0, st1)
		st := []*Stage{st0, st1}[i%2]
		moved, err := st.ApplyPlan(stripePlan(st, tuple.Key(i%5), 5, keyDomain))
		if err != nil {
			t.Fatalf("ApplyPlan: %v", err)
		}
		migrated += moved
	}
	if migrated == 0 {
		t.Fatal("no migration moved state through the codec; the stress is vacuous")
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
	for si, st := range []*Stage{st0, st1} {
		checkOneOwner(t, st, nil, fmt.Sprintf("stage %d after the plans", si))
		if got, want := liveStateTotal(st), int64(len(pre))+total; got != want {
			t.Fatalf("stage %d total state %d, want %d", si, got, want)
		}
	}
}

// unencodable is a state value outside the wire's value tags.
type unencodable struct{ N int }

// TestStateWireEncodeFailure: a plan that moves a key whose state holds
// a value outside the value tags is applied all the same — the key's
// state lands on its destination by reference, once, beside a key that
// crossed the codec and arrives as a decoded copy — and ApplyPlan
// returns an error naming the stage, the key and the value's type.
func TestStateWireEncodeFailure(t *testing.T) {
	st := statefulStage(4, 2)
	defer st.Stop()
	st.SetStateWire(true)
	fed7, fed3 := []tuple.Key{1, 2}, []tuple.Key{3, 4}
	st.FeedBatch([]tuple.Tuple{
		tuple.New(7, unencodable{N: 1}), tuple.New(7, fed7), tuple.New(3, int64(3)), tuple.New(3, fed3),
	})
	st.Barrier()
	asg := st.AssignmentRouter().Assignment()
	plan := &balance.Plan{Table: asg.Table().Clone(), MoveDest: map[tuple.Key]int{}}
	for _, k := range []tuple.Key{7, 3} {
		dst := (asg.Dest(k) + 1) % 4
		plan.Table.Put(k, dst)
		plan.Moved = append(plan.Moved, k)
		plan.MoveDest[k] = dst
	}
	moved, err := st.ApplyPlan(plan)
	if err == nil {
		t.Fatal("a key holding an unencodable value migrated without an error")
	}
	for _, want := range []string{`stage "s"`, "key 7", "engine.unencodable"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
	if moved != 4 {
		t.Fatalf("moved %d units, want 4", moved)
	}
	checkOneOwner(t, st, nil, "after the failed encode")
	for _, k := range []tuple.Key{7, 3} {
		if got := sizeOf(st.StoreOf(plan.MoveDest[k]), k); got != 2 {
			t.Fatalf("key %d holds %d units on its destination, want 2", k, got)
		}
	}
	if got := st.StoreOf(plan.MoveDest[7]).Entries(7)[0].Value; got != (unencodable{N: 1}) {
		t.Fatalf("key 7's first entry arrived as %#v", got)
	}
	// Key 7 moved by reference: its slice is the one fed. Key 3 crossed
	// the codec: an equal slice in new storage.
	if got := st.StoreOf(plan.MoveDest[7]).Entries(7)[1].Value.([]tuple.Key); &got[0] != &fed7[0] {
		t.Fatal("key 7's state was copied; an unencodable key moves by reference")
	}
	got3 := st.StoreOf(plan.MoveDest[3]).Entries(3)[1].Value.([]tuple.Key)
	if !slices.Equal(got3, fed3) || &got3[0] == &fed3[0] {
		t.Fatalf("key 3 arrived as %v at %p, want a decoded copy of %v", got3, &got3[0], fed3)
	}
}
