// Package engine is the distributed-stream-processing substrate the
// reproduced paper ran on Storm: operators parallelized into task
// instances, key-partitioned edges, per-interval statistics reporting
// and the key migration that carries out Fig. 5's rebalance.
//
// Execution model. Every task instance is a goroutine consuming a
// channel of messages (tuples or control thunks), exactly one goroutine
// per instance, so operator state is goroutine-confined and lock-free.
// Time is divided into logical intervals (the paper used 10 s): the
// engine feeds each interval's tuples through the running tasks, then
// closes it, at which point statistics are harvested and the controller
// may rebalance: state only moves between intervals, on a sealed stage. Tuple routing, operator logic, state
// accumulation and migration are all real; only *performance* (task
// service capacity, queueing) is modelled in simulated cost units so
// results are deterministic and hardware-independent (see README.md).
package engine

import (
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// BatchSink consumes batches of tuples: the downstream end of a
// pipeline edge. In-process it is a sender's Port on the next stage;
// across a process boundary it is a cluster data connection streaming
// the same batches to the next stage's host. FeedBatch must copy what
// it keeps — the caller reuses the slice immediately. A Port serves one
// sender; a sink shared by several senders, such as a cluster
// BatchConn, must tolerate concurrent callers.
type BatchSink interface {
	FeedBatch(ts []tuple.Tuple)
}

// TaskCtx is the per-instance execution context handed to operators.
type TaskCtx struct {
	// Store is the instance's windowed state store: the state face of
	// the task's key directory.
	Store *state.Store
	// Tracker accumulates the per-key statistics the controller
	// harvests at interval boundaries: the statistics face of the same
	// directory, whose close (Tracker.EndInterval) also expires the
	// store's buckets.
	Tracker *stats.Tracker
	// out is the emission chunk buffer: streamed into the sink whenever
	// it fills to emitChunk and at interval close, so it never grows
	// past one chunk. Without a sink it collects the interval's
	// emissions until the close discards them.
	out []tuple.Tuple
	// sink is the downstream edge emissions flush into — the task's own
	// Port on the next stage in process, or a cluster data connection to
	// its remote host. It is nil on a last stage nobody listens to.
	sink BatchSink
	// observe is the stage's observation setting (Stage.observe): while
	// it is false the task feeds nothing to Tracker.
	observe bool
}

// Emit sends a tuple to the next stage. A full chunk flushes straight
// into the downstream stage from the emitting task's goroutine; the rest
// follows at the interval close.
func (c *TaskCtx) Emit(t tuple.Tuple) {
	c.out = append(c.out, t)
	if c.sink != nil && len(c.out) >= emitChunk {
		c.flushDown()
	}
}

// flushDown streams the buffered emissions into the downstream stage
// and resets the buffer. FeedBatch copies tuples out of its argument,
// so the buffer is immediately reusable; a downstream migration treats
// these sends exactly as it treats a feeder's.
func (c *TaskCtx) flushDown() {
	c.sink.FeedBatch(c.out)
	c.out = c.out[:0]
}

// Operator is the processing logic of one logical operator. Process
// runs on the owning task's goroutine; implementations must not share
// mutable state across instances except through ctx.Store.
type Operator interface {
	// Process handles one input tuple, optionally emitting downstream
	// tuples and updating windowed state.
	Process(ctx *TaskCtx, t tuple.Tuple)
}

// BatchOperator is an optional Operator extension: ProcessBatch
// handles a whole contiguous batch of tuples on the task goroutine.
// The task loop prefers it over per-tuple Process when implemented,
// letting operators hoist interface dispatch and per-tuple setup out
// of the loop. Semantics must match calling Process on each tuple in
// order.
type BatchOperator interface {
	ProcessBatch(ctx *TaskCtx, ts []tuple.Tuple)
}

// IntervalFlusher is an optional Operator extension: FlushInterval runs
// on the task goroutine at the end of every interval, before statistics
// harvest, and may Emit — the hook periodic emitters (partial-aggregate
// operators like PKG's upstream half) use to publish per-interval
// results downstream.
type IntervalFlusher interface {
	FlushInterval(ctx *TaskCtx)
}

// SplitFolder is the optional Operator extension hot-key splitting
// requires. While a key is split, its tuples are physically processed
// on several replica tasks; instead of running Process there (which
// would scatter canonical state), the engine reduces each tuple to a
// commutative int64 delta via SplitAbsorb — the pkgpart partial
// representation — and sums the replicas' deltas per interval. At
// interval close (and when the key unsplits) the summed delta folds
// back into the key's home task via SplitMerge, together with the
// engine-tracked tuple count and state volume, so the home task's
// canonical state ends the interval exactly as an unsplit run would
// have left it.
//
// Contract: SplitAbsorb runs on replica task goroutines and must be a
// pure function of the tuple (no ctx access — replica state is the
// engine's delta cell, nothing else); SplitMerge runs on the home
// task's goroutine under an interval-close barrier and must leave the
// operator's state as if Process had run freq times with contributions
// summing to delta and mem. Operators whose Process emits mid-interval
// cannot satisfy that contract and must not implement SplitFolder;
// interval-flush emitters qualify because the fold lands before
// FlushInterval.
type SplitFolder interface {
	SplitAbsorb(t tuple.Tuple) int64
	SplitMerge(ctx *TaskCtx, k tuple.Key, delta, freq, mem int64)
}

// OperatorFunc adapts a function to the Operator interface.
type OperatorFunc func(ctx *TaskCtx, t tuple.Tuple)

// Process implements Operator.
func (f OperatorFunc) Process(ctx *TaskCtx, t tuple.Tuple) { f(ctx, t) }

// StatefulCount is a minimal stateful Operator: it appends each tuple
// to the key's windowed state (size = t.StateSize), so state volumes
// and migration costs behave like the paper's word-count topology. Its
// BatchOperator form runs the store appends in a tight loop.
var StatefulCount Operator = statefulCountOp{}

type statefulCountOp struct{}

func (statefulCountOp) Process(ctx *TaskCtx, t tuple.Tuple) {
	ctx.Store.Add(t.Key, state.Entry{Value: t.Value, Size: t.StateSize})
}

func (statefulCountOp) ProcessBatch(ctx *TaskCtx, ts []tuple.Tuple) {
	for i := range ts {
		ctx.Store.Add(ts[i].Key, state.Entry{Value: ts[i].Value, Size: ts[i].StateSize})
	}
}

// SplitAbsorb reduces a tuple to its state-size contribution; the
// per-entry Values collapse into one merged entry at fold time, which
// preserves every aggregate observable (per-key size, windowed expiry,
// store totals) an unsplit run would report.
func (statefulCountOp) SplitAbsorb(t tuple.Tuple) int64 { return t.StateSize }

func (statefulCountOp) SplitMerge(ctx *TaskCtx, k tuple.Key, delta, freq, mem int64) {
	if freq == 0 {
		return
	}
	ctx.Store.Add(k, state.Entry{Value: freq, Size: delta})
}
