package ops

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Every operator of the fleet must take the batch-native path.
var (
	_ engine.BatchOperator = (*WordCount)(nil)
	_ engine.BatchOperator = (*SelfJoin)(nil)
	_ engine.BatchOperator = (*Q5Join)(nil)
	_ engine.BatchOperator = (*NationRevenue)(nil)
	_ engine.BatchOperator = (*PartialCount)(nil)
	_ engine.BatchOperator = (*MergeCount)(nil)
)

func newCtx(w int) *engine.TaskCtx {
	return &engine.TaskCtx{Store: state.NewDir(w, 0).Store(), Tracker: stats.NewTracker(w)}
}

// TestProcessBatchMatchesPerTuple drives each stateful operator twice
// over the same tuple sequence — per tuple and in uneven batches — and
// requires identical observable results. The self-join is the
// order-sensitive case: probe-then-insert within a batch must still
// pair same-key tuples of that batch.
func TestProcessBatchMatchesPerTuple(t *testing.T) {
	mkTuples := func() []tuple.Tuple {
		gen := workload.NewStock(50, 0.9, 3)
		ts := make([]tuple.Tuple, 3000)
		for i := range ts {
			ts[i] = gen.Next()
		}
		return ts
	}
	batches := func(ts []tuple.Tuple) [][]tuple.Tuple {
		var out [][]tuple.Tuple
		for lo, n := 0, 1; lo < len(ts); n = n*2 + 1 {
			hi := lo + n
			if hi > len(ts) {
				hi = len(ts)
			}
			out = append(out, ts[lo:hi])
			lo = hi
		}
		return out
	}

	t.Run("selfjoin", func(t *testing.T) {
		ts := mkTuples()
		single, batched := NewSelfJoin(true), NewSelfJoin(true)
		cs, cb := newCtx(2), newCtx(2)
		for _, tp := range ts {
			single.Process(cs, tp)
		}
		for _, b := range batches(ts) {
			batched.ProcessBatch(cb, b)
		}
		if single.Matches != batched.Matches {
			t.Fatalf("matches %d per-tuple ≠ %d batched", single.Matches, batched.Matches)
		}
		if single.Matches == 0 {
			t.Fatal("test tape produced no joins; not exercising the probe path")
		}
		if a, b := cs.Store.TotalSize(), cb.Store.TotalSize(); a != b {
			t.Fatalf("window state %d ≠ %d", a, b)
		}
	})

	t.Run("wordcount", func(t *testing.T) {
		ts := mkTuples()
		single, batched := NewWordCount(), NewWordCount()
		cs, cb := newCtx(1), newCtx(1)
		for _, tp := range ts {
			single.Process(cs, tp)
		}
		for _, b := range batches(ts) {
			batched.ProcessBatch(cb, b)
		}
		for _, tp := range ts {
			if a, b := single.Count(tp.Key), batched.Count(tp.Key); a != b {
				t.Fatalf("key %d count %d ≠ %d", tp.Key, a, b)
			}
		}
	})

	t.Run("q5join", func(t *testing.T) {
		gen := workload.NewTPCH(workload.DefaultTPCHConfig())
		ts := make([]tuple.Tuple, 3000)
		for i := range ts {
			ts[i] = gen.Next()
		}
		single, batched := NewQ5Join(gen, 2), NewQ5Join(gen, 2)
		cs, cb := newCtx(2), newCtx(2)
		for _, tp := range ts {
			single.Process(cs, tp)
		}
		for _, b := range batches(ts) {
			batched.ProcessBatch(cb, b)
		}
		if single.Joined != batched.Joined {
			t.Fatalf("joined %d per-tuple ≠ %d batched", single.Joined, batched.Joined)
		}
		if single.Joined == 0 {
			t.Fatal("no q5 joins; not exercising the join path")
		}
	})

	t.Run("partialcount", func(t *testing.T) {
		ts := mkTuples()
		single, batched := NewPartialCount(), NewPartialCount()
		cs, cb := newCtx(1), newCtx(1)
		for _, tp := range ts {
			single.Process(cs, tp)
		}
		for _, b := range batches(ts) {
			batched.ProcessBatch(cb, b)
		}
		single.FlushInterval(cs)
		batched.FlushInterval(cb)
		if single.Published != batched.Published {
			t.Fatalf("published %d per-tuple ≠ %d batched", single.Published, batched.Published)
		}
	})
}
