package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/balance"
	"repro/internal/route"
	"repro/internal/state"
	"repro/internal/tuple"
)

// Tests of the live (no-global-barrier) rebalance path: migration
// concurrent with traffic, run under the race detector by the suite.

func TestApplyPlanLiveConcurrentWithTraffic(t *testing.T) {
	var processed atomic.Int64
	st := NewStage("live", 4, func(int) Operator {
		return OperatorFunc(func(ctx *TaskCtx, tp tuple.Tuple) {
			ctx.Store.Add(tp.Key, state.Entry{Value: tp.Value, Size: tp.StateSize})
			processed.Add(1)
		})
	}, 3, newAsgRouter(4))
	defer st.Stop()

	const hot = tuple.Key(42)
	const total = 20000

	// Feeder goroutine: continuous traffic, half on the hot key.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			k := hot
			if i%2 == 1 {
				k = tuple.Key(1000 + i%997) // disjoint from the hot key
			}
			st.Feed(tuple.New(k, i))
		}
	}()

	// Controller goroutine: after some traffic, live-migrate the hot
	// key to the instance after its current home.
	asg := st.AssignmentRouter().Assignment()
	src := asg.Dest(hot)
	dst := (src + 1) % 4
	tab := route.NewTable()
	tab.Put(hot, dst)
	for processed.Load() < total/4 {
	}
	moved, err := st.ApplyPlan(&balance.Plan{
		Table:    tab,
		Moved:    []tuple.Key{hot},
		MoveDest: map[tuple.Key]int{hot: dst},
	}, nil)
	if err != nil {
		t.Fatalf("ApplyPlan: %v", err)
	}
	if moved == 0 {
		t.Error("live migration moved no state despite hot-key traffic")
	}

	wg.Wait()
	st.Barrier()

	if got := processed.Load(); got != total {
		t.Fatalf("processed %d of %d tuples across live migration", got, total)
	}
	// All hot-key state must be on dst, none on src; totals must equal
	// the number of hot tuples (every tuple has state size 1).
	if leak := st.StoreOf(src).Size(hot); leak != 0 {
		t.Fatalf("source retains %d hot state units", leak)
	}
	wantHot := int64(total / 2)
	if got := st.StoreOf(dst).Size(hot); got != wantHot {
		t.Fatalf("dest hot state = %d, want %d", got, wantHot)
	}
	// Routing reflects the new table.
	if st.AssignmentRouter().Assignment().Dest(hot) != dst {
		t.Fatal("assignment not swapped")
	}
}

func TestApplyPlanLiveManyKeysUnderLoad(t *testing.T) {
	st := statefulStage(4, 2)
	defer st.Stop()
	// Preload 100 keys.
	for i := 0; i < 2000; i++ {
		st.Feed(tuple.New(tuple.Key(i%100), nil))
	}
	st.Barrier()

	// Move every fourth key one instance over, with traffic running.
	asg := st.AssignmentRouter().Assignment()
	tab := route.NewTable()
	plan := &balance.Plan{Table: tab, MoveDest: map[tuple.Key]int{}}
	for k := tuple.Key(0); k < 100; k += 4 {
		dst := (asg.Dest(k) + 1) % 4
		tab.Put(k, dst)
		plan.Moved = append(plan.Moved, k)
		plan.MoveDest[k] = dst
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			st.Feed(tuple.New(tuple.Key(i%100), nil))
		}
	}()
	st.ApplyPlan(plan, nil)
	wg.Wait()
	st.Barrier()

	// Every migrated key's state lives exactly at its planned home.
	cur := st.AssignmentRouter().Assignment()
	for _, k := range plan.Moved {
		home := cur.Dest(k)
		if home != plan.MoveDest[k] {
			t.Fatalf("key %d routed to %d, plan said %d", k, home, plan.MoveDest[k])
		}
		for d := 0; d < 4; d++ {
			if d != home && st.StoreOf(d).Size(k) != 0 {
				t.Fatalf("key %d leaked state on instance %d", k, d)
			}
		}
	}
	// No tuples lost: total state equals total fed (7000 unit entries).
	var totalState int64
	for d := 0; d < 4; d++ {
		totalState += st.StoreOf(d).TotalSize()
	}
	if totalState != 7000 {
		t.Fatalf("total state %d, want 7000", totalState)
	}
}

func TestApplyPlanLiveOnShuffleStageErrors(t *testing.T) {
	st := NewStage("s", 2, func(int) Operator { return Discard }, 1, NewShuffleRouter(2))
	defer st.Stop()
	if _, err := st.ApplyPlan(&balance.Plan{}, nil); err == nil {
		t.Fatal("ApplyPlan on shuffle stage did not error")
	}
}
