package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// This file is the emission plane: the serial single-feeder path and
// the Cfg.Feeders fan-out that splits each interval's budget across N
// spout goroutines. The stage side (FeedBatch) already tolerates
// concurrent callers; what the fan-out adds is N private scratch
// buffers and a partitioned draw, so routing, partitioning and channel
// sends — the bulk of emission cost — run in parallel while the draw
// itself stays a deterministic single sequence.

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
	sink    BatchSink
	feeders int
	sb      SpoutBatch
	shards  []SpoutBatch
	scratch [][]tuple.Tuple
}

// NewEmitter builds an emission plane over sink. feeders ≤ 1 selects
// the serial path; with feeders > 1, shards (len == feeders) gives
// each feeder its own partitioned draw source, or nil wraps sb in a
// mutex sharder (ShardSpout), preserving the drawn multiset exactly.
// The last parameter is unused; it stays until the repository
// benchmark, which passes false, stops passing it.
func NewEmitter(sink BatchSink, sb SpoutBatch, shards []SpoutBatch, feeders int, _ bool) *Emitter {
	if feeders < 1 {
		feeders = 1
	}
	em := &Emitter{sink: sink, sb: sb, feeders: feeders}
	if feeders > 1 {
		if len(shards) > 0 {
			if len(shards) != feeders {
				panic("engine: len(SpoutShards) must equal Cfg.Feeders")
			}
			em.shards = shards
		} else {
			em.shards = ShardSpout(sb, feeders)
		}
	}
	em.scratch = make([][]tuple.Tuple, feeders)
	return em
}

// Emit feeds emitN tuples into the sink and returns how many were
// actually drawn (fewer when a finite source ends early). Dispatches
// between the serial path and the feeder fan-out. The first parameter
// (the interval) is unused; it stays until the repository benchmark,
// which passes it, stops passing it.
func (em *Emitter) Emit(_, emitN int64) int64 {
	if em.feeders > 1 {
		return em.emitParallel(emitN)
	}
	return em.emitSerial(emitN)
}

// emitSerial is the single-feeder emission loop, byte-for-byte the
// pre-fan-out engine behavior: one goroutine, one scratch buffer,
// emitChunk-sized draws.
func (em *Emitter) emitSerial(emitN int64) int64 {
	sb := em.sb
	if cap(em.scratch[0]) < emitChunk {
		em.scratch[0] = make([]tuple.Tuple, emitChunk)
	}
	for j := int64(0); j < emitN; {
		c := emitN - j
		if c > emitChunk {
			c = emitChunk
		}
		buf := em.scratch[0][:c]
		got := sb(buf)
		em.sink.FeedBatch(buf[:got])
		j += int64(got)
		if int64(got) < c {
			return j
		}
	}
	return emitN
}

// emitParallel fans emission out to the feeder goroutines. The budget
// is split into per-feeder quotas before the fan-out (throttling has
// already shaped emitN), so each feeder knows its share up front and
// the fan-out needs no mid-interval coordination beyond the draw
// itself. Feeder f draws through its shard into its own scratch and
// calls FeedBatch concurrently with the others — safe per the stage's
// mu-guarded partition scratch and refcounted batch buffers (and the
// cluster BatchConn's send mutex).
func (em *Emitter) emitParallel(emitN int64) int64 {
	feeders := em.feeders
	var wg sync.WaitGroup
	var total atomic.Int64
	quota := emitN / int64(feeders)
	rem := emitN % int64(feeders)
	for f := 0; f < feeders; f++ {
		q := quota
		if int64(f) < rem {
			q++
		}
		if q == 0 {
			continue
		}
		if cap(em.scratch[f]) < emitChunk {
			em.scratch[f] = make([]tuple.Tuple, emitChunk)
		}
		wg.Add(1)
		go func(sb SpoutBatch, scratch []tuple.Tuple, q int64) {
			defer wg.Done()
			for j := int64(0); j < q; {
				c := q - j
				if c > emitChunk {
					c = emitChunk
				}
				buf := scratch[:c]
				got := sb(buf)
				em.sink.FeedBatch(buf[:got])
				j += int64(got)
				total.Add(int64(got))
				if int64(got) < c {
					return
				}
			}
		}(em.shards[f], em.scratch[f], q)
	}
	wg.Wait()
	return total.Load()
}
