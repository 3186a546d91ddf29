package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// batchBuf is a recycled backing array for batch messages: one
// FeedBatch call carves it into per-destination subslices, and the last
// task to finish processing returns it to the pool. Recycling keeps the
// hot path free of per-batch allocations (and the GC free of per-batch
// garbage), which profiling shows otherwise dominates the feeder.
type batchBuf struct {
	data []tuple.Tuple
	refs atomic.Int32
}

var batchBufPool = sync.Pool{New: func() any { return new(batchBuf) }}

// message is the unit of the task actor protocol: a batch of tuples —
// one channel operation amortized across hundreds of them — or a
// control thunk to execute on the task goroutine. Control thunks with a
// done channel double as barriers: because the input channel is FIFO,
// acknowledging the thunk proves every earlier tuple has been fully
// processed.
type message struct {
	ts   []tuple.Tuple // tuple batch; ownership passes to the task
	buf  *batchBuf     // shared backing of ts, refcounted for recycling
	ctrl func(*TaskCtx)
	done chan struct{}
}

// task is one running instance: a goroutine draining its input channel.
type task struct {
	in  chan message
	ctx *TaskCtx
	op  Operator
	opB BatchOperator // non-nil when op implements the batch extension
	wg  sync.WaitGroup

	// Hot-key split state, confined to the task goroutine but for
	// Stage.setSplits, which rewrites split behind a barrier.
	// split holds one commutative delta cell per split key this task
	// replicates — a few, so a slice scanned per tuple: tuples for those
	// keys are absorbed into the cell (operator delta + arrival sums)
	// instead of processed, and the interval-close fold drains the cells
	// back to each key's home task. folder caches the operator's
	// SplitFolder assertion.
	split  []splitCell
	folder SplitFolder
}

// splitCell accumulates one split key's replica-side contribution
// since the last fold: the operator's commutative delta plus the
// cost/frequency/state sums the home task's tracker will absorb. Every
// sum is a plain integer, so folding replicas in any order reconstructs
// exactly the cell an unsplit run would have accumulated.
type splitCell struct {
	key   tuple.Key
	delta int64
	cost  int64
	freq  int64
	mem   int64
}

func (c *splitCell) zero() bool {
	return c.delta == 0 && c.cost == 0 && c.freq == 0 && c.mem == 0
}

// add folds o's sums into c.
func (c *splitCell) add(o *splitCell) {
	c.delta += o.delta
	c.cost += o.cost
	c.freq += o.freq
	c.mem += o.mem
}

// cell returns the task's delta cell for split key k, or nil.
func (t *task) cell(k tuple.Key) *splitCell {
	for i := range t.split {
		if t.split[i].key == k {
			return &t.split[i]
		}
	}
	return nil
}

// taskQueueDepth sizes each instance's input channel. Deep enough that
// the feeding loop rarely blocks within an interval, small enough to
// exercise real channel backpressure under pathological skew.
const taskQueueDepth = 4096

// newTask starts an instance running op on a key directory of its own,
// whose two faces are the task's store and tracker. interval is the
// stage's clock — the number of intervals its siblings' directories
// have closed, 0 for a new stage — so a task added by scale-out keeps
// the same window they do. observe is the stage's observation setting.
func newTask(op Operator, window int, interval int64, observe bool) *task {
	opB, _ := op.(BatchOperator)
	folder, _ := op.(SplitFolder)
	dir := state.NewDir(window, interval)
	t := &task{
		in:     make(chan message, taskQueueDepth),
		op:     op,
		opB:    opB,
		folder: folder,
		ctx: &TaskCtx{
			Store:   dir.Store(),
			Tracker: stats.TrackerOf(dir),
			observe: observe,
		},
	}
	t.wg.Add(1)
	go t.loop()
	return t
}

func (t *task) loop() {
	defer t.wg.Done()
	for m := range t.in {
		switch {
		case m.ctrl != nil:
			m.ctrl(t.ctx)
			if m.done != nil {
				close(m.done)
			}
		default:
			ts := m.ts
			if len(t.split) != 0 {
				ts = t.absorbSplit(ts)
			}
			if len(ts) > 0 {
				if t.opB != nil {
					t.opB.ProcessBatch(t.ctx, ts)
				} else {
					for i := range ts {
						t.op.Process(t.ctx, ts[i])
					}
				}
				if t.ctx.observe {
					t.ctx.Tracker.ObserveBatch(ts)
				}
			}
			if m.buf != nil && m.buf.refs.Add(-1) == 0 {
				batchBufPool.Put(m.buf)
			}
		}
	}
}

// absorbSplit is the hot-key replica path, entered only while this
// task replicates at least one split key. It compacts ts in place to
// the tuples this task should process normally; tuples for split keys
// are reduced into their delta cells — no operator state, no tracker
// observation here. Everything the home task would have recorded is
// reconstructed from the cell sums at fold time, so the replica stays
// invisible to every interval observable.
func (t *task) absorbSplit(ts []tuple.Tuple) []tuple.Tuple {
	keep := ts[:0]
	for i := range ts {
		if c := t.cell(ts[i].Key); c != nil {
			t.absorbOne(c, ts[i])
			continue
		}
		keep = append(keep, ts[i])
	}
	return keep
}

// absorbOne folds a single split-key tuple into its delta cell.
func (t *task) absorbOne(c *splitCell, tp tuple.Tuple) {
	if t.folder != nil {
		c.delta += t.folder.SplitAbsorb(tp)
	}
	c.cost += tp.Cost
	c.freq++
	c.mem += tp.StateSize
}

// sendBatch enqueues a batch; the slice must not be touched by the
// sender afterwards (ownership transfers to the task goroutine). buf,
// when non-nil, is the recycled backing array the batch was carved
// from; the task decrements its refcount after processing.
func (t *task) sendBatch(ts []tuple.Tuple, buf *batchBuf) {
	t.in <- message{ts: ts, buf: buf}
}

// barrier runs fn on the task goroutine and waits for it; fn == nil is
// a pure drain barrier. After barrier returns, the caller may touch
// the task's ctx directly until it sends the next message (the channel
// handoff gives the necessary happens-before edges).
func (t *task) barrier(fn func(*TaskCtx)) {
	<-t.barrierAsync(fn)
}

// barrierAsync enqueues fn on the task goroutine and returns the done
// channel without waiting, so a caller can start one barrier per task
// and join them all — the parallel form Stage.EndInterval uses to
// harvest every tracker concurrently. The channel is closed after fn
// runs (receiving from it gives the happens-before edge on anything fn
// wrote).
func (t *task) barrierAsync(fn func(*TaskCtx)) chan struct{} {
	if fn == nil {
		fn = func(*TaskCtx) {}
	}
	done := make(chan struct{})
	t.in <- message{ctrl: fn, done: done}
	return done
}

// closeInterval enqueues the interval-close thunk: drain the queue,
// run the operator's FlushInterval hook when implemented, then flush
// the residual emission buffer downstream — or discard it on a last
// stage nobody listens to. Running on the task goroutine serializes the
// residual flush with the task's own mid-interval flushes. Returns the
// done channel so the stage can close all tasks concurrently.
func (t *task) closeInterval() chan struct{} {
	f, _ := t.op.(IntervalFlusher)
	return t.barrierAsync(func(ctx *TaskCtx) {
		if f != nil {
			f.FlushInterval(ctx)
		}
		if ctx.sink != nil {
			if len(ctx.out) > 0 {
				ctx.flushDown()
			}
		} else {
			ctx.out = ctx.out[:0]
		}
	})
}

// stop closes the input channel and waits for the goroutine to exit.
func (t *task) stop() {
	close(t.in)
	t.wg.Wait()
}
