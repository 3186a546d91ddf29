package engine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// checkOneOwner asserts that every key has one owner: each key holding
// live state is stored on exactly one task — F(k), or Split.Home for a
// split key — and snap, the merged snapshot of the close just run (nil
// after an actuation), lists each key once. Call it with the stage's
// tasks drained: after a close, or after an actuation and a Barrier.
func checkOneOwner(t *testing.T, st *Stage, snap *stats.Snapshot, at string) {
	t.Helper()
	asg := st.AssignmentRouter().Assignment()
	splits := asg.Splits()
	if splits == nil {
		splits = route.NewSplitTable()
	}
	owner := make(map[tuple.Key]int)
	for d := 0; d < st.Instances(); d++ {
		for _, k := range st.StoreOf(d).Keys() {
			if o, dup := owner[k]; dup {
				t.Fatalf("%s: key %d stored on tasks %d and %d", at, k, o, d)
			}
			owner[k] = d
			home := asg.Dest(k)
			if sp, ok := splits.Lookup(k); ok {
				home = sp.Home
			}
			if d != home {
				t.Fatalf("%s: key %d stored on task %d, its owner is %d", at, k, d, home)
			}
		}
	}
	if snap == nil {
		return
	}
	seen := make(map[tuple.Key]bool, len(snap.Keys))
	for _, ks := range snap.Keys {
		if seen[ks.Key] {
			t.Fatalf("%s: the snapshot lists key %d twice", at, ks.Key)
		}
		seen[ks.Key] = true
	}
}

// checkStateAccounting asserts the store-level invariant on every task:
// TotalSize is exactly the sum of the per-key sizes.
func checkStateAccounting(t *testing.T, st *Stage, at string) {
	t.Helper()
	for d := 0; d < st.Instances(); d++ {
		store := st.StoreOf(d)
		var sum int64
		for _, k := range store.Keys() {
			sum += sizeOf(store, k)
		}
		if got := store.TotalSize(); got != sum {
			t.Fatalf("%s: task %d TotalSize = %d, Σ Size(k) = %d", at, d, got, sum)
		}
	}
}

// stressInterval drives one interval of the feed → close → actuate
// schedule the stress tests run: open every stage of the pipeline, feed
// (concurrent feeders), close the stages in order — each close streams
// the stage's residual emissions downstream before the next one closes
// — and end every stage's interval, checking one owner per key against
// each snapshot. The caller actuates on the sealed stages afterwards.
func stressInterval(t *testing.T, interval int64, feed func(), stages ...*Stage) {
	t.Helper()
	for _, st := range stages {
		st.StartInterval(interval)
	}
	feed()
	for _, st := range stages {
		st.CloseInterval()
	}
	for si, st := range stages {
		checkOneOwner(t, st, st.EndInterval(interval), fmt.Sprintf("stage %d, interval %d", si, interval))
	}
}

// feedConcurrently runs feeders goroutines, each pushing chunks batches
// of chunk tuples into its own Port on in, and returns when all of them
// are done. The goroutines draw from draw under one mutex, each call
// claiming the next chunk of its sequence, so together they feed
// exactly its first feeders·chunks·chunk tuples.
func feedConcurrently(in *Stage, draw SpoutBatch, feeders, chunks, chunk int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range feeders {
		wg.Add(1)
		go func(p *Port) {
			defer wg.Done()
			buf := make([]tuple.Tuple, chunk)
			for range chunks {
				mu.Lock()
				got := draw(buf)
				mu.Unlock()
				p.FeedBatch(buf[:got])
			}
		}(in.NewPort())
	}
	wg.Wait()
}

// stripePlan moves every step-th key of [first, domain) one instance
// over from its current destination, on top of the stage's table.
func stripePlan(st *Stage, first, step, domain tuple.Key) *balance.Plan {
	asg := st.AssignmentRouter().Assignment()
	plan := &balance.Plan{Table: asg.Table().Clone(), MoveDest: map[tuple.Key]int{}}
	for k := first; k < domain; k += step {
		dst := (asg.Dest(k) + 1) % st.Instances()
		plan.Table.Put(k, dst)
		plan.Moved = append(plan.Moved, k)
		plan.MoveDest[k] = dst
	}
	return plan
}

// TestStateVolumeConservedAcrossActuations: a live rebalance, a
// scale-in and a scale-out each move windowed state between tasks and
// must neither create nor lose any — the stage-wide state volume is the
// same before and after, and every task's
// TotalSize stays the sum of its keys' sizes through the closes in
// between (keys expiring, keys returning, migrated buckets expiring on
// their new task).
//
// The task a scale-out creates starts its store on its siblings' clock
// (state.NewDir), so the buckets it receives expire on time and the
// ones it later hands back carry interval numbers its siblings' windows
// still hold: retiring the scaled-out task again loses nothing either.
func TestStateVolumeConservedAcrossActuations(t *testing.T) {
	st := statefulStage(3, 3)
	interval := int64(0)
	run := func(keys int) {
		for k := 0; k < keys; k++ {
			st.FeedBatch([]tuple.Tuple{{Key: tuple.Key(k), Cost: 1, StateSize: int64(1 + k%4)}})
		}
		st.Barrier()
		snap := st.EndInterval(interval)
		interval++
		checkStateAccounting(t, st, "after close")
		checkOneOwner(t, st, snap, "after close")
	}
	conserved := func(what string, act func() (int64, error)) {
		t.Helper()
		before := liveStateTotal(st)
		if before == 0 {
			t.Fatalf("%s: no live state; the test is vacuous", what)
		}
		if _, err := act(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st.Barrier()
		if after := liveStateTotal(st); after != before {
			t.Fatalf("%s: stage state volume %d → %d", what, before, after)
		}
		checkStateAccounting(t, st, "after "+what)
		checkOneOwner(t, st, nil, "after "+what)
	}

	run(400)
	run(150) // keys 150..399 idle: their buckets start expiring below
	conserved("ApplyPlan", func() (int64, error) {
		asg := st.AssignmentRouter().Assignment()
		plan := &balance.Plan{Table: route.NewTable(), MoveDest: map[tuple.Key]int{}}
		for k := tuple.Key(0); k < 400; k += 5 {
			dst := (asg.Dest(k) + 1) % st.Instances()
			plan.Table.Put(k, dst)
			plan.Moved = append(plan.Moved, k)
			plan.MoveDest[k] = dst
		}
		return st.ApplyPlan(plan)
	})
	run(400)
	run(0)
	conserved("ScaleIn", st.ScaleIn)
	run(300)
	conserved("ScaleOut", st.ScaleOut)
	for i := 0; i < 5; i++ {
		run(100)
	}
	run(400)
	conserved("ScaleIn after ScaleOut", st.ScaleIn)
	st.Stop()
}
