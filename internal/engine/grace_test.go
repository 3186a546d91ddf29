package engine

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// gatedOp blocks in Process until its gate closes (a nil gate never
// blocks), announcing its first entry on entered.
type gatedOp struct {
	gate    chan struct{}
	entered chan struct{}
	once    bool
}

func (g *gatedOp) Process(ctx *TaskCtx, t tuple.Tuple) {
	if g.gate == nil {
		return
	}
	if !g.once {
		g.once = true
		close(g.entered)
	}
	<-g.gate
}

// parkFeeder builds a 4-instance stage and parks a feeder mid-FeedBatch:
// the task owning key parked is blocked in its operator with a full
// queue behind it, and one more FeedBatch for that key sits in its
// channel send, pinned under the current generation. It returns the
// stage, the parked task's index and the function that releases the
// operator (after which the feeder's call returns; release waits for it).
func parkFeeder(t *testing.T) (st *Stage, blocked int, release func()) {
	t.Helper()
	const nd = 4
	const parked = tuple.Key(1)
	gate, entered := make(chan struct{}), make(chan struct{})
	blocked = newAsgRouter(nd).Assignment().Dest(parked)
	st = NewStage("grace", nd, func(id int) Operator {
		if id == blocked {
			return &gatedOp{gate: gate, entered: entered}
		}
		return &gatedOp{}
	}, 1, newAsgRouter(nd))
	st.Feed(tuple.New(parked, nil))
	<-entered // the task holds one message and is inside Process
	for i := 0; i < taskQueueDepth; i++ {
		st.Feed(tuple.New(parked, nil)) // fills the queue, never blocks
	}
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		st.FeedBatch([]tuple.Tuple{tuple.New(parked, nil)})
	}()
	slot := st.AssignmentRouter().Assignment().Gen() & 1
	for st.genInflight[slot].Load() == 0 {
		runtime.Gosched()
	}
	return st, blocked, func() {
		close(gate)
		<-fed
	}
}

// returnsOnlyAfter asserts the grace period: once published() reports
// that act has swapped the assignment, act must still be waiting for the
// parked feeder, and must return once the feeder is released.
func returnsOnlyAfter(t *testing.T, release func(), published func() bool, act func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		act()
	}()
	for !published() {
		runtime.Gosched()
	}
	early := false
	select {
	case <-done:
		early = true
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if early {
		t.Fatal("returned while a feeder pinned under the replaced generation was still mid-FeedBatch")
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("did not return after the feeder was released")
	}
}

// TestEveryPublicationWaitsOutTheOldGeneration pins the two-generation
// invariant genInflight depends on: a swap with nothing to extract — an
// add-only split set, a plan that moves no key — still waits until every
// feeder pinned under the replaced generation has finished its sends.
// Without the wait a feeder survives into generation g+2, whose
// sequencer watches the other slot, and its tuple reaches a migrating
// key's old owner after the state was extracted.
func TestEveryPublicationWaitsOutTheOldGeneration(t *testing.T) {
	t.Run("add-only split set", func(t *testing.T) {
		st, blocked, release := parkFeeder(t)
		defer st.Stop()
		// A hot key whose replica ring (home and its successor) avoids
		// the blocked task: arming its cells must not queue behind the
		// gate, or the call would block for the wrong reason.
		asg := st.AssignmentRouter().Assignment()
		hot := tuple.Key(2)
		for ; ; hot++ {
			if h := asg.Dest(hot); h != blocked && (h+1)%st.Instances() != blocked {
				break
			}
		}
		returnsOnlyAfter(t, release,
			func() bool { return len(st.SplitKeys()) == 1 },
			func() {
				if err := st.ApplySplitSet([]stats.HotKey{{Key: hot, Fan: 2}}); err != nil {
					t.Error(err)
				}
			})
	})
	t.Run("plan without moves", func(t *testing.T) {
		st, _, release := parkFeeder(t)
		defer st.Stop()
		ar := st.AssignmentRouter()
		gen := ar.Assignment().Gen()
		plan := &balance.Plan{Table: ar.Assignment().Table().Clone(), MoveDest: map[tuple.Key]int{}}
		returnsOnlyAfter(t, release,
			func() bool { return ar.Assignment().Gen() > gen },
			func() {
				if _, err := st.ApplyPlan(plan, nil); err != nil {
					t.Error(err)
				}
			})
	})
}

// TestHandoffOverflowCountsBeyondSoftCap pins the handoff buffer's soft
// bound: tuples parked for a migrating key past handoffSoftCap are kept
// and replayed, and each one past the cap is counted on the stage.
func TestHandoffOverflowCountsBeyondSoftCap(t *testing.T) {
	st := statefulStage(2, 1)
	defer st.Stop()
	k := tuple.Key(5)
	tk := st.tasks[st.AssignmentRouter().Assignment().Dest(k)]
	tk.barrier(func(*TaskCtx) { tk.handoff = map[tuple.Key][]tuple.Tuple{k: nil} })
	const extra = 7
	batch := make([]tuple.Tuple, handoffSoftCap+extra)
	for i := range batch {
		batch[i] = tuple.New(k, nil)
	}
	st.FeedBatch(batch)
	tk.barrier(func(ctx *TaskCtx) { tk.replayHandoff(ctx, k) })
	if got := st.HandoffOverflow(); got != extra {
		t.Fatalf("HandoffOverflow = %d, want %d", got, extra)
	}
	if got := st.CtxOf(tk.id).ProcessedTuples; got != int64(len(batch)) {
		t.Fatalf("replayed %d of %d parked tuples", got, len(batch))
	}
}
