package engine

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pkgpart"
	"repro/internal/state"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Tests of the batched data plane: FeedBatch must be observationally
// identical to a Feed-per-tuple loop (routing decisions, arrival
// accounting, statistics, pause/hold semantics) while taking the
// amortized path.

func TestFeedBatchMatchesFeedPerTuple(t *testing.T) {
	const nd, n = 4, 5000
	batched := statefulStage(nd, 2)
	defer batched.Stop()
	single := statefulStage(nd, 2)
	defer single.Stop()

	rng := rand.New(rand.NewSource(7))
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.New(tuple.Key(rng.Intn(300)), i).WithCost(int64(1 + i%3))
	}
	for _, tp := range ts {
		single.FeedBatch([]tuple.Tuple{tp})
	}
	// Feed the same sequence in uneven batch sizes, including empty.
	batched.FeedBatch(nil)
	for lo := 0; lo < n; {
		hi := lo + 1 + rng.Intn(700)
		if hi > n {
			hi = n
		}
		batched.FeedBatch(ts[lo:hi])
		lo = hi
	}
	single.Barrier()
	batched.Barrier()

	for d := 0; d < nd; d++ {
		if a, b := single.ArrivedCost()[d], batched.ArrivedCost()[d]; a != b {
			t.Fatalf("instance %d arrived cost %d (per-tuple) ≠ %d (batched)", d, a, b)
		}
		if a, b := single.ArrivedTuples()[d], batched.ArrivedTuples()[d]; a != b {
			t.Fatalf("instance %d arrived tuples %d ≠ %d", d, a, b)
		}
	}
	arrived := slices.Clone(batched.ArrivedCost())
	sSnap := single.EndInterval(0)
	bSnap := batched.EndInterval(0)
	if len(sSnap.Keys) != len(bSnap.Keys) {
		t.Fatalf("snapshot key counts differ: %d ≠ %d", len(sSnap.Keys), len(bSnap.Keys))
	}
	for i := range sSnap.Keys {
		if sSnap.Keys[i] != bSnap.Keys[i] {
			t.Fatalf("snapshot entry %d differs: %+v ≠ %+v", i, sSnap.Keys[i], bSnap.Keys[i])
		}
	}
	// Every arrival was processed where it arrived: the cost each
	// instance observed sums to its arrived cost.
	observed := make([]int64, nd)
	for _, ks := range bSnap.Keys {
		observed[ks.Dest] += ks.Cost
	}
	if !slices.Equal(observed, arrived) {
		t.Fatalf("observed cost per instance %v ≠ arrived %v", observed, arrived)
	}
	// Per-key state must live on identical instances with identical size.
	for k := tuple.Key(0); k < 300; k++ {
		for d := 0; d < nd; d++ {
			if a, b := single.StoreOf(d).Size(k), batched.StoreOf(d).Size(k); a != b {
				t.Fatalf("key %d instance %d state %d ≠ %d", k, d, a, b)
			}
		}
	}
}

func TestFeedBatchOnShuffleAndPKGStages(t *testing.T) {
	// A shuffle stage claims each batch's round-robin positions with one
	// atomic add on its shared position, so its per-instance totals are
	// exact for any number of senders. A PKG stage routes on each
	// sender's own load estimate: a sender's decisions depend on its own
	// batches alone — exactly those of a pkgpart.Router fed the same.
	const nd, rounds = 4, 5
	batch := make([]tuple.Tuple, 300)
	for i := range batch {
		batch[i] = tuple.New(tuple.Key(i), nil)
		if i%3 == 0 {
			batch[i].Key = 7 // a hot key PKG splits over its two candidates
		}
	}
	// chunks cuts batch into chunks of 1, 2, …, 24 tuples.
	var chunks [][]tuple.Tuple
	for lo, n := 0, 1; lo < len(batch); lo, n = lo+n, n+1 {
		chunks = append(chunks, batch[lo:lo+n])
	}
	// feed drives rounds passes over chunks into each sender, all
	// senders concurrently.
	feed := func(st *Stage, senders ...BatchSink) []int64 {
		var wg sync.WaitGroup
		for _, sink := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range rounds {
					for _, c := range chunks {
						sink.FeedBatch(c)
					}
				}
			}()
		}
		wg.Wait()
		st.Barrier()
		return st.ArrivedTuples()
	}
	ref := pkgpart.NewRouter(nd)
	want := make([]int64, nd)
	dst := make([]int, len(batch))
	for range rounds {
		for _, c := range chunks {
			ref.DestTuples(c, dst)
			for _, d := range dst[:len(c)] {
				want[d]++
			}
		}
	}
	for _, senders := range []int{1, 2} {
		stage := func(r Router) (*Stage, []BatchSink) {
			st := NewStage("s", nd, func(int) Operator { return Discard }, 1, r)
			t.Cleanup(st.Stop)
			if senders == 1 {
				return st, []BatchSink{st} // the stage's own handle
			}
			return st, []BatchSink{st.NewPort(), st.NewPort()}
		}
		st, sinks := stage(NewShuffleRouter(nd))
		for d, got := range feed(st, sinks...) {
			if w := int64(senders * rounds * len(batch) / nd); got != w {
				t.Fatalf("%d sender(s): shuffle instance %d got %d tuples, want %d", senders, d, got, w)
			}
		}
		st, sinks = stage(NewPKGRouter(nd))
		for d, got := range feed(st, sinks...) {
			if w := int64(senders) * want[d]; got != w {
				t.Fatalf("%d sender(s): PKG instance %d got %d tuples, want %d (%d per sender's own estimate)", senders, d, got, w, want[d])
			}
		}
	}
}

// TestPKGSendersDeterministic feeds a PKG stage from a 3-task upstream
// stage. Each upstream task routes its emissions on its own load
// estimate, so the PKG stage's per-instance arrivals and stores are a
// function of the input alone, however the tasks' flushes interleave:
// two runs agree exactly.
func TestPKGSendersDeterministic(t *testing.T) {
	const nd, intervals = 4, 3
	run := func() (arrived [][]int64, stores []map[tuple.Key]int64) {
		up := NewStage("up", 3, func(int) Operator {
			return OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) { ctx.Emit(tp) })
		}, 1, newAsgRouter(3))
		down := NewStage("pkg", nd, func(int) Operator { return StatefulCount }, intervals+1, NewPKGRouter(nd))
		defer up.Stop()
		defer down.Stop()
		up.SetDownstream(down)
		gen := workload.NewZipfStream(1000, 1.2, 0, 0, 5)
		buf := make([]tuple.Tuple, emitChunk)
		for i := range int64(intervals) {
			up.StartInterval(i)
			down.StartInterval(i)
			for range 16 {
				up.FeedBatch(buf[:gen.NextBatch(buf)])
			}
			up.CloseInterval()
			down.CloseInterval()
			arrived = append(arrived, slices.Clone(down.ArrivedTuples()))
			up.EndInterval(i)
			down.EndInterval(i)
		}
		for d := range nd {
			m := make(map[tuple.Key]int64)
			for _, k := range down.StoreOf(d).Keys() {
				m[k] = down.StoreOf(d).Size(k)
			}
			stores = append(stores, m)
		}
		return arrived, stores
	}
	a1, s1 := run()
	a2, s2 := run()
	for i := range a1 {
		if !slices.Equal(a1[i], a2[i]) {
			t.Fatalf("interval %d: PKG arrivals %v, then %v", i, a1[i], a2[i])
		}
	}
	for d := range s1 {
		if !maps.Equal(s1[d], s2[d]) {
			t.Fatalf("instance %d: stores differ between runs (%d and %d keys)", d, len(s1[d]), len(s2[d]))
		}
	}
}

// TestFeedBatchConcurrentWithApplyPlanLive is the -race stress test of
// the batched feeder around a migration: a feeder goroutine drives
// FeedBatch for an interval, the stage closes, a plan moves every third
// key, and the feeder drives a second interval. No tuple may be lost,
// and migrated keys must end up exactly at their planned destinations.
func TestFeedBatchConcurrentWithApplyPlanLive(t *testing.T) {
	const (
		nd        = 4
		keyDomain = 100
		batchSize = 256
		batches   = 20 // per interval
	)
	var processed atomic.Int64
	st := NewStage("live-batch", nd, func(int) Operator {
		return OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) {
			ctx.Store.Add(tp.Key, state.Entry{Value: tp.Value, Size: tp.StateSize})
			processed.Add(1)
		})
	}, 3, newAsgRouter(nd))
	defer st.Stop()

	// Preload every key so migration has state to move.
	pre := make([]tuple.Tuple, 2*keyDomain)
	for i := range pre {
		pre[i] = tuple.New(tuple.Key(i%keyDomain), i)
	}
	st.FeedBatch(pre)
	st.Barrier()

	var seq atomic.Uint64
	draw := func(dst []tuple.Tuple) int {
		for i := range dst {
			n := seq.Add(1) - 1
			dst[i] = tuple.New(tuple.Key(n%keyDomain), n)
		}
		return len(dst)
	}
	feed := func() { feedConcurrently(st, draw, 1, batches, batchSize) }
	stressInterval(t, 0, feed, st)
	plan := stripePlan(st, 0, 3, keyDomain)
	if _, err := st.ApplyPlan(plan, nil); err != nil {
		t.Fatalf("ApplyPlan: %v", err)
	}
	stressInterval(t, 1, feed, st)

	// No tuple lost across the migration.
	want := int64(len(pre) + 2*batches*batchSize)
	if got := processed.Load(); got != want {
		t.Fatalf("processed %d of %d tuples across the migration", got, want)
	}
	// Post-migration destinations: state lives exactly at the planned
	// home, and fresh batches route there.
	cur := st.AssignmentRouter().Assignment()
	for _, k := range plan.Moved {
		if home := cur.Dest(k); home != plan.MoveDest[k] {
			t.Fatalf("key %d routes to %d, plan said %d", k, home, plan.MoveDest[k])
		}
	}
	checkOneOwner(t, st, nil, "after the second interval")
	if total := liveStateTotal(st); total != want {
		t.Fatalf("total state %d, want %d (tuple loss or duplication)", total, want)
	}
}

func TestEngineBatchSpoutMatchesLegacySpout(t *testing.T) {
	// The same generator sequence driven through NewBatch and through
	// the legacy per-tuple spout adapter must produce identical interval
	// metrics — the batched emission path changes cost, not semantics.
	mk := func(batch bool) *Engine {
		var n uint64
		draw := func() tuple.Tuple {
			n++
			return tuple.New(tuple.Key(n%777), nil)
		}
		st := statefulStage(4, 1)
		cfg := DefaultConfig()
		cfg.Budget = 5000
		if batch {
			return NewBatch(BatchSpout(draw), cfg, st)
		}
		return New(draw, cfg, st)
	}
	a, b := mk(false), mk(true)
	defer a.Stop()
	defer b.Stop()
	a.Run(3)
	b.Run(3)
	for i := 0; i < 3; i++ {
		ma, mb := a.Recorder.Series[i], b.Recorder.Series[i]
		if ma.Throughput != mb.Throughput || ma.LatencyMs != mb.LatencyMs || ma.Skewness != mb.Skewness {
			t.Fatalf("interval %d metrics diverge: %+v ≠ %+v", i, ma, mb)
		}
	}
}
