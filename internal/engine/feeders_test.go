package engine

import (
	"sync/atomic"
	"testing"

	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Tests of the fanned-out emission plane: Cfg.Feeders > 1 must change
// cost, not semantics — the drawn multiset, per-interval metrics and
// harvest snapshots stay identical to the serial single-feeder run,
// and concurrent feeders must compose with migration between intervals
// under -race.

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

// adaptShards converts plain sharded draw functions — the shape the
// workload generators' Shard methods return — into SpoutBatch values
// for Engine.SpoutShards.
func adaptShards(fns []func(dst []tuple.Tuple) int) []SpoutBatch {
	out := make([]SpoutBatch, len(fns))
	for i, f := range fns {
		out[i] = f
	}
	return out
}

// mkFeederEngine builds a 6-instance engine over a seeded Zipf draw
// with the given feeder count, returning the engine and its fleet.
func mkFeederEngine(feeders int, shards bool) (*Engine, []*stats.Snapshot, []*countingOp) {
	const nd = 6
	gen := workload.NewZipfStream(2000, 0.9, 0, 10000, 23)
	fleet := make([]*countingOp, nd)
	st := NewStage("op", nd, func(id int) Operator {
		fleet[id] = &countingOp{counts: make(map[tuple.Key]int64)}
		return fleet[id]
	}, 2, newAsgRouter(nd))
	cfg := DefaultConfig()
	cfg.Budget = 10000
	cfg.Feeders = feeders
	e := NewBatch(gen.NextBatch, cfg, st)
	if shards {
		e.SpoutB = nil
		e.SpoutShards = adaptShards(gen.Shard(feeders))
	}
	return e, observeAll(e), fleet
}

// TestParallelFeedersMatchSerial pins the tentpole determinism claim:
// with Feeders = 4 the merged tuple multiset and every exhibit-relevant
// metric (throughput, latency, skewness, emitted, the harvest
// snapshot) equal the Feeders = 1 run over identical seeds — both for
// the engine's internal mutex sharder and for generator-provided
// SpoutShards.
func TestParallelFeedersMatchSerial(t *testing.T) {
	serial, serialSnaps, serialFleet := mkFeederEngine(1, false)
	defer serial.Stop()
	serial.Run(5)

	for _, tc := range []struct {
		name   string
		shards bool
	}{
		{"auto-sharded-spout", false},
		{"generator-shards", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			par, parSnaps, parFleet := mkFeederEngine(4, tc.shards)
			defer par.Stop()
			par.Run(5)

			for i := 0; i < 5; i++ {
				ms, mp := serial.Recorder.Series[i], par.Recorder.Series[i]
				if ms != mp {
					t.Fatalf("interval %d metrics diverge:\nserial   %+v\nfeeders4 %+v", i, ms, mp)
				}
			}
			want, got := mergedCounts(serialFleet), mergedCounts(parFleet)
			if len(want) != len(got) {
				t.Fatalf("distinct keys %d ≠ %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("key %d processed %d times with 4 feeders, %d serially", k, got[k], n)
				}
			}
			ss, sp := serialSnaps[0], parSnaps[0]
			if len(ss.Keys) != len(sp.Keys) {
				t.Fatalf("snapshot sizes %d ≠ %d", len(sp.Keys), len(ss.Keys))
			}
			for i := range ss.Keys {
				if ss.Keys[i] != sp.Keys[i] {
					t.Fatalf("snapshot entry %d: %+v ≠ %+v", i, sp.Keys[i], ss.Keys[i])
				}
			}
		})
	}
}

// TestParallelFeedersShardCountMismatchPanics pins the SpoutShards
// wiring contract.
func TestParallelFeedersShardCountMismatchPanics(t *testing.T) {
	e, _, _ := mkFeederEngine(4, false)
	defer e.Stop()
	e.SpoutShards = make([]SpoutBatch, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched SpoutShards length did not panic")
		}
	}()
	e.RunInterval()
}

// TestConcurrentFeedersWithApplyPlanLive is the -race stress test of
// the fanned-out feeder fleet around a migration: four feeder
// goroutines drive FeedBatch through shard draws for an interval, the
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

	// Four feeders drawing disjoint shares of one shard-split sequence,
	// exactly the emission shape of Cfg.Feeders = 4.
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
