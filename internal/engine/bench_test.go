package engine

import (
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
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
