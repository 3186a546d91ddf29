package engine

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Tests of hot-key splitting: split-routed tuples must fan out across
// the replica set, fold back into the home task at interval close with
// exact tracker/state/operator accounting, pin split keys against
// rebalance plans, and survive split churn and rebalancing between
// intervals fed by concurrent feeders (run under -race by the suite).

// splitCountOp counts per key like countingOp and implements the
// SplitFolder contract: the replica delta is the tuple count, folded
// back as count + windowed state.
type splitCountOp struct {
	countingOp
}

func (s *splitCountOp) SplitAbsorb(t tuple.Tuple) int64 { return 1 }

func (s *splitCountOp) SplitMerge(ctx *TaskCtx, k tuple.Key, delta, freq, mem int64) {
	if freq == 0 {
		return
	}
	s.counts[k] += delta
	ctx.Store.Add(k, state.Entry{Value: delta, Size: mem})
}

func splitCountStage(nd, w int) (*Stage, []*splitCountOp) {
	fleet := make([]*splitCountOp, nd)
	st := NewStage("hk", nd, func(id int) Operator {
		fleet[id] = &splitCountOp{countingOp{counts: make(map[tuple.Key]int64)}}
		return fleet[id]
	}, w, newAsgRouter(nd))
	return st, fleet
}

// TestSplitChargesReplicas pins the feed's arrival accounting under a
// split: a split key's tuples are charged, cost and count, to the
// replicas they are sent to — round-robin over the ring from its home —
// and every other key's to its destination, batch sizes whatever.
func TestSplitChargesReplicas(t *testing.T) {
	const nd, fan, hot = 5, 3, tuple.Key(7)
	st, _ := splitCountStage(nd, 2)
	defer st.Stop()
	if err := st.ApplySplitSet([]stats.HotKey{{Key: hot, Fan: fan}}); err != nil {
		t.Fatal(err)
	}
	asg := st.AssignmentRouter().Assignment()
	wantCost, wantTuples := make([]int64, nd), make([]int64, nd)
	reps := route.Replicas(asg.Dest(hot), fan, nd)
	var batch []tuple.Tuple
	sent := 0
	for i := 0; i < 600; i++ {
		tp := tuple.New(hot, i).WithCost(3)
		if i%4 == 3 {
			tp = tuple.New(tuple.Key(100+i%40), i).WithCost(2)
			wantCost[asg.Dest(tp.Key)] += 2
			wantTuples[asg.Dest(tp.Key)]++
		} else {
			d := reps[sent%fan]
			sent++
			wantCost[d] += 3
			wantTuples[d]++
		}
		batch = append(batch, tp)
		if len(batch) == 1+i%13 {
			st.FeedBatch(batch)
			batch = batch[:0]
		}
	}
	st.FeedBatch(batch)
	st.Barrier()
	if !slices.Equal(st.ArrivedCost(), wantCost) || !slices.Equal(st.ArrivedTuples(), wantTuples) {
		t.Fatalf("arrivals cost %v, tuples %v; want %v, %v", st.ArrivedCost(), st.ArrivedTuples(), wantCost, wantTuples)
	}
}

// TestSplitFoldsBackExactly pins the fold-back accounting: a split
// key's tuples absorbed on replicas land, after CloseInterval, on the
// home task only — operator count, windowed state and tracker cell all
// exactly as fed.
func TestSplitFoldsBackExactly(t *testing.T) {
	const nd = 4
	st, fleet := splitCountStage(nd, 2)
	defer st.Stop()
	hot := tuple.Key(7)
	if err := st.ApplySplitSet([]stats.HotKey{{Key: hot, Fan: 3}}); err != nil {
		t.Fatal(err)
	}
	if set := st.Splits(); len(set) != 1 || set[0] != (stats.HotKey{Key: hot, Fan: 3}) {
		t.Fatalf("Splits = %v, want [{%d 3}]", set, hot)
	}

	const n = 600
	for i := 0; i < n; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(hot, i)})
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(i%50)+100, i)})
	}
	st.Barrier()

	home := st.AssignmentRouter().Assignment().Dest(hot)
	// Pre-fold: the home's operator saw only the share round-robined to
	// it; the rest sits in replica cells.
	if got := fleet[home].counts[hot]; got >= n {
		t.Fatalf("home processed %d of %d split-key tuples before fold; replicas absorbed nothing", got, n)
	}

	st.CloseInterval()
	snap := st.EndInterval(1)

	var total int64
	for d, op := range fleet {
		if d != home && op.counts[hot] != 0 {
			t.Fatalf("replica %d retained %d counts for split key after fold", d, op.counts[hot])
		}
		total += op.counts[hot]
	}
	if total != n {
		t.Fatalf("split key count %d after fold, fed %d", total, n)
	}
	for d := 0; d < nd; d++ {
		want := int64(0)
		if d == home {
			want = n
		}
		if got := st.StoreOf(d).Size(hot); got != want {
			t.Fatalf("instance %d holds %d state units for split key, want %d", d, got, want)
		}
	}
	for _, ks := range snap.Keys {
		if ks.Key != hot {
			continue
		}
		if ks.Cost != n || ks.Freq != n || ks.Dest != home {
			t.Fatalf("harvest for split key: %+v, want cost=freq=%d dest=%d", ks, n, home)
		}
		return
	}
	t.Fatalf("split key missing from harvest")
}

// TestSplitBatchSpreadsEvenly pins the feed path's slot claim: however
// the batch is sized and wherever the key's round-robin cursor stands,
// the n split tuples of one FeedBatch call spread over the fan replicas
// with each receiving ⌊n/fan⌋ or ⌈n/fan⌉ of them.
func TestSplitBatchSpreadsEvenly(t *testing.T) {
	const nd, fan = 5, 3
	st, _ := splitCountStage(nd, 2)
	defer st.Stop()
	hot := tuple.Key(11)
	if err := st.ApplySplitSet([]stats.HotKey{{Key: hot, Fan: fan}}); err != nil {
		t.Fatal(err)
	}
	sp, _ := st.AssignmentRouter().Assignment().Splits().Lookup(hot)
	absorbed := func() []int64 {
		st.Barrier()
		got := make([]int64, nd)
		for d, tk := range st.tasks {
			if c := tk.cell(hot); c != nil {
				got[d] = c.freq
			}
		}
		return got
	}
	before := absorbed()
	for _, n := range []int{1, 2, 3, 4, 7, 10, 64, 101} {
		batch := make([]tuple.Tuple, 0, 2*n)
		for i := 0; i < n; i++ {
			batch = append(batch, tuple.New(hot, nil), tuple.New(tuple.Key(100+i), nil))
		}
		st.FeedBatch(batch)
		after := absorbed()
		var sum int64
		for d := range after {
			got := after[d] - before[d]
			sum += got
			if !containsDest(sp.Replicas, d) {
				if got != 0 {
					t.Fatalf("batch of %d: instance %d outside the replicas %v absorbed %d", n, d, sp.Replicas, got)
				}
				continue
			}
			if lo, hi := int64(n/fan), int64((n+fan-1)/fan); got < lo || got > hi {
				t.Fatalf("batch of %d over %d replicas: instance %d absorbed %d, want %d..%d", n, fan, d, got, lo, hi)
			}
		}
		if sum != int64(n) {
			t.Fatalf("batch of %d: replicas absorbed %d", n, sum)
		}
		before = after
	}
}

// TestSplitRetireExtractsResidue pins the swap-then-extract path: a
// key leaving the split set before its cells were folded has its
// replica residue merged home immediately, not lost.
func TestSplitRetireExtractsResidue(t *testing.T) {
	st, fleet := splitCountStage(4, 2)
	defer st.Stop()
	hot := tuple.Key(3)
	if err := st.ApplySplitSet([]stats.HotKey{{Key: hot, Fan: 4}}); err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(hot, i)})
	}
	st.Barrier()
	// Unsplit without an interval close in between: retirement must
	// extract the cells.
	if err := st.ApplySplitSet(nil); err != nil {
		t.Fatal(err)
	}
	if set := st.Splits(); set != nil {
		t.Fatalf("Splits = %v after full retire", set)
	}
	st.Barrier()
	var total int64
	for _, op := range fleet {
		total += op.counts[hot]
	}
	if total != n {
		t.Fatalf("count %d after retire, fed %d", total, n)
	}
	home := st.AssignmentRouter().Assignment().Dest(hot)
	if got := st.StoreOf(home).Size(hot); got != n {
		t.Fatalf("home state %d after retire, want %d", got, n)
	}
}

// TestSplitPinsKeysAgainstPlans pins the stage-level plan guard: a
// rebalance plan that tries to migrate a split key has that move
// stripped (counted in SplitPinned) and the key's routing left at its
// home, while the plan's other moves apply normally.
func TestSplitPinsKeysAgainstPlans(t *testing.T) {
	st, _ := splitCountStage(4, 2)
	defer st.Stop()
	for k := tuple.Key(0); k < 20; k++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(k, nil)})
	}
	st.Barrier()

	hot, cold := tuple.Key(5), tuple.Key(11)
	if err := st.ApplySplitSet([]stats.HotKey{{Key: hot, Fan: 2}}); err != nil {
		t.Fatal(err)
	}
	asg := st.AssignmentRouter().Assignment()
	home := asg.Dest(hot)
	tab := asg.Table().Clone()
	plan := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
	for _, k := range []tuple.Key{hot, cold} {
		dst := (asg.Dest(k) + 1) % 4
		tab.Put(k, dst)
		plan.Moved = append(plan.Moved, k)
		plan.MoveDest[k] = dst
	}
	if _, err := st.ApplyPlan(plan, nil); err != nil {
		t.Fatal(err)
	}
	if st.SplitPinned() != 1 {
		t.Fatalf("SplitPinned = %d, want 1", st.SplitPinned())
	}
	cur := st.AssignmentRouter().Assignment()
	if cur.Dest(hot) != home {
		t.Fatalf("split key moved from %d to %d despite guard", home, cur.Dest(hot))
	}
	if cur.Dest(cold) != plan.MoveDest[cold] {
		t.Fatalf("cold key at %d, plan wanted %d", cur.Dest(cold), plan.MoveDest[cold])
	}
}

// TestSplitStressWithContinuousRebalance is the -race stress of split
// churn composed with migration: each interval four feeders emit a
// viral-key mix, and between intervals the split set changes — arm,
// fan growth, retire — and a rebalance plan (every round also trying to
// move the split keys themselves, which the guard must pin) is applied.
// Every tuple must be counted exactly once and every key's state must
// end at its routed home.
func TestSplitStressWithContinuousRebalance(t *testing.T) {
	const (
		nd        = 4
		feeders   = 4
		keyDomain = 60
		chunk     = 64
		chunks    = 8 // per feeder per interval
		rounds    = 16
	)
	st, fleet := splitCountStage(nd, rounds+2) // a window longer than the run
	defer st.Stop()

	// Preload so plans migrate real state.
	pre := make([]tuple.Tuple, 2*keyDomain)
	for i := range pre {
		pre[i] = tuple.New(tuple.Key(i%keyDomain), i)
	}
	st.FeedBatch(pre)
	st.Barrier()

	splitSets := [][]stats.HotKey{
		{{Key: 0, Fan: 2}},
		{{Key: 0, Fan: 3}, {Key: 1, Fan: 2}},
		{{Key: 1, Fan: 4}},
		nil,
	}
	// Feeders: every other tuple hits the viral keys 0/1.
	var seq atomic.Uint64
	draw := func(dst []tuple.Tuple) int {
		for i := range dst {
			n := seq.Add(1) - 1
			k := tuple.Key(n % keyDomain)
			if n%2 == 0 {
				k = tuple.Key(n % 4 / 2) // keys 0 and 1
			}
			dst[i] = tuple.New(k, n)
		}
		return len(dst)
	}
	for i := range rounds {
		stressInterval(t, int64(i), func() {
			feedConcurrently(st, draw, feeders, chunks, chunk)
			if i%4 == 3 {
				st.foldSplits() // exercise the mid-interval fold too
				feedConcurrently(st, draw, feeders, chunks, chunk)
			}
		}, st)
		if err := st.ApplySplitSet(splitSets[i%len(splitSets)]); err != nil {
			t.Fatalf("ApplySplitSet: %v", err)
		}
		if _, err := st.ApplyPlan(stripePlan(st, tuple.Key(i%5), 5, keyDomain), nil); err != nil {
			t.Fatalf("ApplyPlan: %v", err)
		}
		checkOneOwner(t, st, nil, fmt.Sprintf("after round %d", i))
	}

	// Fold everything back.
	if err := st.ApplySplitSet(nil); err != nil {
		t.Fatal(err)
	}
	st.Barrier()

	fedPerKey := make(map[tuple.Key]int64)
	for i := range pre {
		fedPerKey[pre[i].Key]++
	}
	total := int64(seq.Load())
	for n := int64(0); n < total; n++ {
		k := tuple.Key(n % keyDomain)
		if n%2 == 0 {
			k = tuple.Key(n % 4 / 2)
		}
		fedPerKey[k]++
	}
	got := make(map[tuple.Key]int64)
	for _, op := range fleet {
		for k, n := range op.counts {
			got[k] += n
		}
	}
	for k, n := range fedPerKey {
		if got[k] != n {
			t.Fatalf("key %d counted %d times, fed %d (loss or double-count)", k, got[k], n)
		}
	}
	if len(got) != len(fedPerKey) {
		t.Fatalf("key cardinality: fed %d, counted %d", len(fedPerKey), len(got))
	}

	// Placement: all state at each key's routed home, volumes exact.
	checkOneOwner(t, st, nil, "after the plans")
	if got, want := liveStateTotal(st), int64(len(pre))+total; got != want {
		t.Fatalf("total state %d, want %d", got, want)
	}
	checkOneOwner(t, st, st.EndInterval(rounds), "after the close")
}

// TestPublishedSplitKernelMatchesReference pins the feeder's one-probe
// kernel on the assignments the stage itself publishes — by
// ApplySplitSet and by ApplyPlan with a split set riding along —
// against per-tuple Dest plus SplitTable.Index, and the anchor the
// fold relies on: every split's Home is F(k).
func TestPublishedSplitKernelMatchesReference(t *testing.T) {
	const nd, domain = 8, 300
	st, _ := splitCountStage(nd, 2)
	defer st.Stop()
	check := func(step string) {
		t.Helper()
		a := st.AssignmentRouter().Assignment()
		sp := a.Splits()
		ts := make([]tuple.Tuple, 2*domain)
		for i := range ts {
			ts[i] = tuple.New(tuple.Key(i%domain), nil)
		}
		dst := make([]int, len(ts))
		a.DestTuples(ts, dst)
		for i := range ts {
			k := ts[i].Key
			want := a.Dest(k)
			if sp != nil {
				if j := sp.Index(k); j >= 0 {
					if h := sp.At(j).Home; h != want {
						t.Fatalf("%s: split key %d has home %d, F(k) = %d", step, k, h, want)
					}
					want = ^j
				}
			}
			if dst[i] != want {
				t.Fatalf("%s: key %d: DestTuples %d, want %d", step, k, dst[i], want)
			}
		}
	}
	// plan moves 80 keys, stride apart, one instance over.
	plan := func(stride tuple.Key) {
		asg := st.AssignmentRouter().Assignment()
		tab := asg.Table().Clone()
		p := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
		for k := tuple.Key(0); k < 80*stride; k += stride {
			dst := (asg.Dest(k) + 1) % nd
			tab.Put(k, dst)
			p.Moved = append(p.Moved, k)
			p.MoveDest[k] = dst
		}
		if _, err := st.ApplyPlan(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	check("initial")
	plan(2)
	check("plan without splits")
	// Key 4 is in the table, key 299 is not.
	if err := st.ApplySplitSet([]stats.HotKey{{Key: 4, Fan: 4}, {Key: 299, Fan: 2}}); err != nil {
		t.Fatal(err)
	}
	check("split set")
	plan(1) // moves key 4 too: pinned to its home
	if st.SplitPinned() != 1 {
		t.Fatalf("SplitPinned = %d, want 1", st.SplitPinned())
	}
	check("plan with splits")
	if err := st.ApplySplitSet([]stats.HotKey{{Key: 6, Fan: 3}}); err != nil {
		t.Fatal(err)
	}
	check("split set replaced")
	if err := st.ApplySplitSet(nil); err != nil {
		t.Fatal(err)
	}
	check("split set retired")
}

// TestCloseQueuesOneHarvest pins the harvest CloseInterval queues: the
// next EndInterval returns it, a second close in between queues no
// second one, and an EndInterval with no close before it harvests on
// its own.
func TestCloseQueuesOneHarvest(t *testing.T) {
	st, _ := splitCountStage(4, 2)
	defer st.Stop()
	hot := tuple.Key(9)
	if err := st.ApplySplitSet([]stats.HotKey{{Key: hot, Fan: 4}}); err != nil {
		t.Fatal(err)
	}
	freq := func(snap *stats.Snapshot) (n int64) {
		for _, ks := range snap.Keys {
			n += ks.Freq
		}
		return n
	}
	for i := 0; i < 100; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(hot, i)})
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(i%10), i)})
	}
	st.CloseInterval()
	st.CloseInterval()
	if got := freq(st.EndInterval(0)); got != 200 {
		t.Fatalf("closed twice: harvested %d tuples, fed 200", got)
	}
	for i := 0; i < 50; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(hot, i)})
	}
	if got := freq(st.EndInterval(1)); got != 50 {
		t.Fatalf("no close: harvested %d tuples, fed 50", got)
	}
}
