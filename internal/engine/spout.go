package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// This file is the emission plane: the serial single-feeder path and
// the Cfg.Feeders fan-out that splits each interval's budget across N
// spout goroutines. What the fan-out adds is, per feeder, a private
// scratch buffer, a sender's own Port on the stage and a partitioned
// draw, so routing, partitioning and channel sends — the bulk of
// emission cost — run in parallel while the draw itself stays a
// deterministic single sequence.

// ShardSpout splits one batch spout across n shards sharing a mutex:
// each shard call atomically claims the next len(dst) draws of the
// underlying sequence. Disjointness and the drawn multiset are exact —
// the union of B draws across shards is the first B draws of sb — so
// sharded emission keeps single-feeder statistics bit-identical; which
// segment lands on which shard depends on scheduling, which no
// consumer observes. A short draw latches exhaustion for every shard.
func ShardSpout(sb SpoutBatch, n int) []SpoutBatch {
	if n < 1 {
		n = 1
	}
	var mu sync.Mutex
	done := false
	draw := func(dst []tuple.Tuple) int {
		mu.Lock()
		defer mu.Unlock()
		if done {
			return 0
		}
		got := sb(dst)
		if got < len(dst) {
			done = true
		}
		return got
	}
	out := make([]SpoutBatch, n)
	for i := range out {
		out[i] = draw
	}
	return out
}

// batchSpout resolves the engine's draw source, wrapping a legacy
// per-tuple Spout when only that is configured.
func (e *Engine) batchSpout() SpoutBatch {
	if e.SpoutB != nil {
		return e.SpoutB
	}
	if e.Spout == nil {
		panic("engine: RunInterval with neither Spout nor SpoutB configured")
	}
	return BatchSpout(e.Spout)
}

// emit feeds emitN tuples of the current interval into stage 0 and
// returns how many were actually drawn (fewer when a finite source
// ends early).
func (e *Engine) emit(emitN int64) int64 {
	if e.emitter == nil {
		// Generator-provided shards cover the parallel draw on their
		// own; only resolve the unified spout when some path needs it.
		var sb SpoutBatch
		if e.Cfg.Feeders <= 1 || len(e.SpoutShards) == 0 {
			sb = e.batchSpout()
		}
		e.emitter = NewEmitter(e.Stages[0], sb, e.SpoutShards, e.Cfg.Feeders, false)
	}
	return e.emitter.Emit(e.interval, emitN)
}

// Emitter is the emission plane detached from the engine: it draws an
// interval's tuples from a (possibly sharded) spout and feeds them
// into any BatchSink in emitChunk-sized batches — the first stage of
// an in-process engine, or a cluster data connection fanning the same
// batches to a remote stage host. The engine and the cluster
// coordinator run this exact code, which is what pins their chunk
// boundaries (and hence shuffle routing and arrival accounting)
// bit-identical.
type Emitter struct {
	// Feeder f draws through shards[f] into scratch[f] and feeds
	// sinks[f]; a serial emitter is feeder 0 alone.
	shards  []SpoutBatch
	sinks   []BatchSink
	scratch [][]tuple.Tuple
}

// NewEmitter builds an emission plane over sink. feeders ≤ 1 selects
// the serial path, which feeds sink itself; with feeders > 1, shards
// (len == feeders) gives each feeder its own partitioned draw source,
// or nil wraps sb in a mutex sharder (ShardSpout), preserving the drawn
// multiset exactly, and each feeder holds its own sender's handle on
// sink (a Port, when sink is a stage). The last parameter is unused; it
// stays until the repository benchmark, which passes false, stops
// passing it.
func NewEmitter(sink BatchSink, sb SpoutBatch, shards []SpoutBatch, feeders int, _ bool) *Emitter {
	if feeders <= 1 {
		return &Emitter{shards: []SpoutBatch{sb}, sinks: []BatchSink{sink}, scratch: make([][]tuple.Tuple, 1)}
	}
	if len(shards) == 0 {
		shards = ShardSpout(sb, feeders)
	} else if len(shards) != feeders {
		panic("engine: len(SpoutShards) must equal Cfg.Feeders")
	}
	em := &Emitter{shards: shards, sinks: make([]BatchSink, feeders), scratch: make([][]tuple.Tuple, feeders)}
	for f := range em.sinks {
		em.sinks[f] = senderOf(sink)
	}
	return em
}

// Emit feeds emitN tuples into the sink and returns how many were
// actually drawn (fewer when a finite source ends early). A serial
// emitter runs its one feeder on the caller's goroutine. Otherwise the
// budget is split into per-feeder quotas before the fan-out (throttling
// has already shaped emitN), so each feeder goroutine knows its share
// up front and needs no mid-interval coordination beyond the draw
// itself; the feeders' ports share no routing state but a shuffle
// stage's position, claimed a batch at a time, and the stage's atomic
// arrival counters. The first parameter (the interval) is unused; it
// stays until the repository benchmark, which passes it, stops passing
// it.
func (em *Emitter) Emit(_, emitN int64) int64 {
	feeders := int64(len(em.shards))
	if feeders == 1 {
		return em.feed(0, emitN)
	}
	var wg sync.WaitGroup
	var total atomic.Int64
	for f := range feeders {
		q := emitN / feeders
		if f < emitN%feeders {
			q++
		}
		if q > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				total.Add(em.feed(int(f), q))
			}()
		}
	}
	wg.Wait()
	return total.Load()
}

// feed is feeder f's loop: q tuples drawn through its shard into its
// scratch and fed to its sink in emitChunk-sized batches. Returns how
// many were drawn (fewer when the source ends early).
func (em *Emitter) feed(f int, q int64) int64 {
	if cap(em.scratch[f]) < emitChunk {
		em.scratch[f] = make([]tuple.Tuple, emitChunk)
	}
	for j := int64(0); j < q; {
		buf := em.scratch[f][:min(q-j, emitChunk)]
		got := em.shards[f](buf)
		em.sinks[f].FeedBatch(buf[:got])
		j += int64(got)
		if got < len(buf) {
			return j
		}
	}
	return q
}
