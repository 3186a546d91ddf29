package engine

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func BenchmarkStageFeedHash(b *testing.B) {
	st := statefulStage(10, 1)
	defer st.Stop()
	one := make([]tuple.Tuple, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = tuple.New(tuple.Key(i), nil)
		st.FeedBatch(one)
	}
	b.StopTimer()
	st.Barrier()
}

func BenchmarkEngineInterval(b *testing.B) {
	var n uint64
	st := statefulStage(10, 1)
	cfg := DefaultConfig()
	cfg.Budget = 10000
	e := New(func() tuple.Tuple {
		n++
		return tuple.New(tuple.Key(n%10000), nil)
	}, cfg, st)
	defer e.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunInterval()
	}
}

// feedBenchStage builds a routing-focused stage (Discard operator) so
// the per-tuple-vs-batched comparison measures the data plane —
// routing, channel, tracker — rather than operator state growth.
func feedBenchStage(nd int, r Router) *Stage {
	return NewStage("bench", nd, func(int) Operator { return Discard }, 1, r)
}

// benchKeys cycles a bounded key set so tracker maps stay a fixed size
// regardless of b.N.
func benchKeys(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.New(tuple.Key(uint64(i)*2654435761%4096), nil)
	}
	return ts
}

// BenchmarkFeedPerTuple is the per-tuple baseline BenchmarkFeedBatch is
// measured against: identical workload, one FeedBatch call per tuple.
func BenchmarkFeedPerTuple(b *testing.B) {
	st := feedBenchStage(10, newAsgRouter(10))
	defer st.Stop()
	ts := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ts)
		st.FeedBatch(ts[j : j+1])
	}
	b.StopTimer()
	st.Barrier()
}

// BenchmarkFeedBatch drives the same workload through the batched data
// plane in engine-sized chunks; ns/op stays per-tuple comparable. The
// assignment shape routes through the lock-free assignment kernel, the
// pkg shape through the sender's own PKG load estimate.
func BenchmarkFeedBatch(b *testing.B) {
	for _, bc := range []struct {
		name   string
		router func(nd int) Router
	}{
		{"assignment", func(nd int) Router { return newAsgRouter(nd) }},
		{"pkg", func(nd int) Router { return NewPKGRouter(nd) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st := feedBenchStage(10, bc.router(10))
			defer st.Stop()
			const batch = emitChunk
			ts := benchKeys(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				off := n % len(ts)
				if off+batch > len(ts) {
					off = 0
				}
				st.FeedBatch(ts[off : off+batch])
			}
			b.StopTimer()
			st.Barrier()
		})
	}
}

// BenchmarkFeedBatchSplit is BenchmarkFeedBatch at the repository
// benchmark's hotkey shape: 8 tasks, an 80-entry routing table, and one
// key carrying 40 % of the tuples, split 4 ways — the split feed path
// (one probe, slot claim, remap, each tuple charged to its replica)
// plus the replicas' absorption.
func BenchmarkFeedBatchSplit(b *testing.B) {
	const nd, hot = 8, tuple.Key(4095)
	st := feedBenchStage(nd, newAsgRouter(nd))
	defer st.Stop()
	asg := st.AssignmentRouter().Assignment()
	plan := &balance.Plan{Table: route.NewTable(), MoveDest: map[tuple.Key]int{}}
	for k := tuple.Key(0); plan.Table.Len() < 80; k += 7 {
		plan.Table.Put(k, (asg.Dest(k)+1)%nd)
	}
	if _, err := st.ApplyPlan(plan, nil); err != nil {
		b.Fatal(err)
	}
	if err := st.ApplySplitSet([]stats.HotKey{{Key: hot, Fan: 4}}); err != nil {
		b.Fatal(err)
	}
	ts := benchKeys(4096)
	for i := range ts {
		if i%5 < 2 {
			ts[i].Key = hot
		}
	}
	const batch = emitChunk
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		off := n % len(ts)
		if off+batch > len(ts) {
			off = 0
		}
		st.FeedBatch(ts[off : off+batch])
	}
	b.StopTimer()
	st.Barrier()
}

// BenchmarkMigrateKey moves one key's window back and forth between two
// idle tasks through ApplyPlan: the per-key cost of a plan.
func BenchmarkMigrateKey(b *testing.B) {
	st := statefulStage(2, 1)
	defer st.Stop()
	k := tuple.Key(1)
	st.FeedBatch([]tuple.Tuple{tuple.New(k, nil)})
	st.Barrier()
	dst := 1 - st.AssignmentRouter().Assignment().Dest(k)
	plan := &balance.Plan{Table: route.NewTable(), Moved: []tuple.Key{k}, MoveDest: map[tuple.Key]int{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Table.Put(k, dst)
		plan.MoveDest[k] = dst
		if _, err := st.ApplyPlan(plan, nil); err != nil {
			b.Fatal(err)
		}
		dst = 1 - dst
	}
}

// BenchmarkMigratePlan applies a 12-key plan over 8 idle tasks — the
// size of an average hotkey plan — moving every key one instance on
// each time: the cost of a plan's barrier rounds.
func BenchmarkMigratePlan(b *testing.B) {
	const nd, nkeys = 8, 12
	st := statefulStage(nd, 1)
	defer st.Stop()
	keys := make([]tuple.Key, nkeys)
	for i := range keys {
		keys[i] = tuple.Key(i * 97)
		st.FeedBatch([]tuple.Tuple{tuple.New(keys[i], nil)})
	}
	st.Barrier()
	plan := &balance.Plan{Table: route.NewTable(), Moved: keys, MoveDest: map[tuple.Key]int{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asg := st.AssignmentRouter().Assignment()
		for _, k := range keys {
			dst := (asg.Dest(k) + 1) % nd
			plan.Table.Put(k, dst)
			plan.MoveDest[k] = dst
		}
		if _, err := st.ApplyPlan(plan, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// sizeOp is the repository benchmark's counting operator reduced to its
// store traffic: one Add of the tuple's state size per tuple, with value
// in the entry (nil for the counting operator; ops.WordCount and
// ops.SelfJoin store one, so their keys keep entry runs).
type sizeOp struct{ value any }

func (o sizeOp) Process(ctx *TaskCtx, t tuple.Tuple) {
	ctx.Store.Add(t.Key, state.Entry{Value: o.value, Size: t.StateSize})
}

func (o sizeOp) ProcessBatch(ctx *TaskCtx, ts []tuple.Tuple) {
	for i := range ts {
		ctx.Store.Add(ts[i].Key, state.Entry{Value: o.value, Size: ts[i].StateSize})
	}
}

// taskShape is one BENCHMARK.json workload's per-task share: each of nd
// tasks re-draws `touched` of its `keys` keys every interval and sees
// `tuples` tuples over them, stored by sizeOp{value}.
type taskShape struct {
	name                         string
	nd, keys, touched, tuples, w int
	value                        any
}

// The two shapes the repository benchmark runs: pipe-local's 40 tuples
// on every key with w = 1 over 4 tasks, and variance's ~1 400 of a
// task's 12 500 keys re-drawn every interval at 1.8 tuples per key with
// w = 5 over 8; and pipe-local's shape with values in the entries.
var taskShapes = []taskShape{
	{name: "pipe_4x250x40_w1", nd: 4, keys: 250, touched: 250, tuples: 10000, w: 1},
	{name: "variance_8x1400of12500x1.8_w5", nd: 8, keys: 12500, touched: 1400, tuples: 2520, w: 5},
	{name: "pipe_4x250x40_w1_boxed", nd: 4, keys: 250, touched: 250, tuples: 10000, w: 1, value: int64(1)},
}

// draw pre-generates a ring of intervals: ring[i][d] is task d's tuples
// in interval i, every drawn key at least once, shuffled.
func (sh taskShape) draw(seed int64) [][][]tuple.Tuple {
	const ring = 16
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]tuple.Tuple, ring)
	for i := range out {
		out[i] = make([][]tuple.Tuple, sh.nd)
		for d := range out[i] {
			picked := rng.Perm(sh.keys)[:sh.touched]
			ts := make([]tuple.Tuple, sh.tuples)
			for j := range ts {
				k := picked[j%sh.touched]
				if j >= sh.touched {
					k = picked[rng.Intn(sh.touched)]
				}
				ts[j] = tuple.New(tuple.Key(d*sh.keys+k), nil)
			}
			rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
			out[i][d] = ts
		}
	}
	return out
}

// BenchmarkTaskInterval times whole intervals of a stage's store and
// tracker work with the tasks' working sets competing for the caches as
// they do in a run: 128-tuple slices fed round-robin across the tasks,
// each slice through the operator's Adds and then the tracker's
// ObserveBatch, as the task loop does, on one goroutine; then the
// stage's close (the harvest on every task and the merge). One op is one
// interval; add, observe and close are reported per tuple of it. The
// boxed row stores values, so its keys keep entry runs where the other
// rows' keys are packed (counted, no run).
func BenchmarkTaskInterval(b *testing.B) {
	const slice = 128
	for _, sh := range taskShapes {
		b.Run(sh.name, func(b *testing.B) {
			op := sizeOp{sh.value}
			ring := sh.draw(1)
			st := NewStage("bench", sh.nd, func(int) Operator { return op }, sh.w, newAsgRouter(sh.nd))
			defer st.Stop()
			var iv int64
			run := func(in [][]tuple.Tuple) (add, obs, end time.Duration) {
				for lo := 0; lo < sh.tuples; lo += slice {
					for d, t := range st.tasks {
						chunk := in[d][lo:min(lo+slice, sh.tuples)]
						t0 := time.Now()
						op.ProcessBatch(t.ctx, chunk)
						t1 := time.Now()
						t.ctx.Tracker.ObserveBatch(chunk)
						add += t1.Sub(t0)
						obs += time.Since(t1)
					}
				}
				t0 := time.Now()
				st.EndInterval(iv)
				iv++
				return add, obs, time.Since(t0)
			}
			for i := 0; i < 4*(sh.w+1); i++ {
				run(ring[i%len(ring)])
			}
			var add, obs, end time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, o, e := run(ring[i%len(ring)])
				add, obs, end = add+a, obs+o, end+e
			}
			n := float64(b.N * sh.nd * sh.tuples)
			b.ReportMetric(float64(add)/n, "add-ns/tuple")
			b.ReportMetric(float64(obs)/n, "observe-ns/tuple")
			b.ReportMetric(float64(end)/n, "close-ns/tuple")
		})
	}
}
