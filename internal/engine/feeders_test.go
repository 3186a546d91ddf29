package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/state"
	"repro/internal/tuple"
)

// Concurrent senders into one stage — upstream tasks, inbound data
// connections, each with its own Port — must compose with migration
// between intervals under -race.

// countingOp accumulates the per-key tuple multiset an instance
// processed, so tests can compare what actually flowed.
type countingOp struct {
	counts map[tuple.Key]int64
}

func (c *countingOp) Process(ctx *TaskCtx, t tuple.Tuple) {
	c.counts[t.Key]++
	ctx.Store.Add(t.Key, state.Entry{Value: t.Value, Size: t.StateSize})
}

// mergedCounts sums the per-instance multisets of a fleet.
func mergedCounts(fleet []*countingOp) map[tuple.Key]int64 {
	m := make(map[tuple.Key]int64)
	for _, op := range fleet {
		for k, n := range op.counts {
			m[k] += n
		}
	}
	return m
}

// TestConcurrentFeedersWithApplyPlanLive is the -race stress test of
// concurrent senders around a migration: four feeder goroutines, each
// with its own Port, drive FeedBatch for an interval, the
// stage closes, a plan moves every third key, and the fleet feeds a
// second interval. No tuple may be lost and migrated keys must land
// exactly at their planned destinations.
func TestConcurrentFeedersWithApplyPlanLive(t *testing.T) {
	const (
		nd        = 4
		feeders   = 4
		keyDomain = 100
		chunks    = 16 // per feeder per interval
		chunk     = 256
	)
	var processed atomic.Int64
	st := NewStage("live-feeders", nd, func(int) Operator {
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

	// Four feeders drawing disjoint shares of one sequence.
	var seq atomic.Uint64
	draw := func(dst []tuple.Tuple) int {
		for i := range dst {
			n := seq.Add(1) - 1
			dst[i] = tuple.New(tuple.Key(n%keyDomain), n)
		}
		return len(dst)
	}
	feed := func() { feedConcurrently(st, draw, feeders, chunks, chunk) }
	stressInterval(t, 0, feed, st)
	plan := stripePlan(st, 0, 3, keyDomain)
	if _, err := st.ApplyPlan(plan); err != nil {
		t.Fatalf("ApplyPlan: %v", err)
	}
	stressInterval(t, 1, feed, st)

	want := int64(len(pre) + 2*feeders*chunks*chunk)
	if got := processed.Load(); got != want {
		t.Fatalf("processed %d of %d tuples across the migration", got, want)
	}
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
