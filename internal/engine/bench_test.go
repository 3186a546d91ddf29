package engine

import (
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func BenchmarkStageFeedHash(b *testing.B) {
	st := statefulStage(10, 1)
	defer st.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Feed(tuple.New(tuple.Key(i), nil))
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
// the Feed-vs-FeedBatch comparison measures the data plane — lock,
// routing, channel, tracker — rather than operator state growth.
func feedBenchStage(nd int) *Stage {
	return NewStage("bench", nd, func(int) Operator { return Discard }, 1, newAsgRouter(nd))
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
// measured against: identical workload, one Feed call per tuple.
func BenchmarkFeedPerTuple(b *testing.B) {
	st := feedBenchStage(10)
	defer st.Stop()
	ts := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Feed(ts[i%len(ts)])
	}
	b.StopTimer()
	st.Barrier()
}

// BenchmarkFeedBatch drives the same workload through the batched data
// plane in engine-sized chunks; ns/op stays per-tuple comparable.
func BenchmarkFeedBatch(b *testing.B) {
	st := feedBenchStage(10)
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
}

// BenchmarkFeedBatchSplit is BenchmarkFeedBatch at the repository
// benchmark's hotkey shape: 8 tasks, an 80-entry routing table, and one
// key carrying 40 % of the tuples, split 4 ways — the split feed path
// (one probe, home charge, slot claim, remap) plus the replicas'
// absorption.
func BenchmarkFeedBatchSplit(b *testing.B) {
	const nd, hot = 8, tuple.Key(4095)
	st := feedBenchStage(nd)
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
// idle tasks through the live sequencer: the per-key cost of a plan.
func BenchmarkMigrateKey(b *testing.B) {
	st := statefulStage(2, 1)
	defer st.Stop()
	k := tuple.Key(1)
	st.Feed(tuple.New(k, nil))
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
		st.Feed(tuple.New(keys[i], nil))
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
