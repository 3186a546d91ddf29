package cluster

import (
	"fmt"
	"sync"

	"repro/internal/protocol"
	"repro/internal/tuple"
)

// DefCoalesce is the frame-coalescing byte budget: FeedBatch chunks
// accumulate into one wire frame until the frame reaches this many
// bytes, then the frame ships. 32 KiB keeps frames well under typical
// socket buffer sizes while amortizing the per-frame syscall across
// dozens of steady-state chunks.
const DefCoalesce = 32 << 10

// chunkPool recycles per-call encode scratch so concurrent FeedBatch
// callers serialize only the socket write, never the encoding.
var chunkPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// BatchConn is the data plane: an engine.BatchSink streaming tuple
// batches over a cluster connection into a remote stage. Chunk
// boundaries — one per FeedBatch call — are preserved on the wire, so
// the receiver replays the exact same FeedBatch sequence and
// round-robin shuffle routing plus arrival accounting stay bit-for-bit
// identical across the process boundary.
//
// Each chunk is encoded OUTSIDE the mutex into pooled scratch
// (protocol.AppendBatchChunk touches no shared state), then appended
// under the lock to a pending coalesced frame: multiple chunks
// aggregate into one wire frame up to DefCoalesce bytes, force-flushed
// at the interval barrier by Flush. Only the append-and-maybe-write is
// serialized, so upstream task goroutines fanning into one edge do not
// convoy behind each other's encoding. Sub-batch length prefixes inside
// the frame keep the chunk sequence intact.
//
// Errors latch: the first failure poisons the connection and every
// later call becomes a no-op, surfaced at the next Flush — the data
// plane has no mid-interval recovery story, only clean teardown at the
// barrier.
type BatchConn struct {
	c       *Conn
	mu      sync.Mutex
	seq     uint64
	err     error
	pending []byte // coalesced frame under construction
	nsub    int    // chunks in pending
}

// NewBatchConn wraps an established data connection.
func NewBatchConn(c *Conn) *BatchConn { return &BatchConn{c: c} }

// FeedBatch sends one batch downstream. The tuples are fully encoded
// before return, so the caller's slice is immediately reusable — the
// same contract engine.Stage.FeedBatch gives its callers. Tolerates
// concurrent callers (upstream task goroutines flush into the same
// edge).
func (b *BatchConn) FeedBatch(ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	sp := chunkPool.Get().(*[]byte)
	chunk, encErr := protocol.AppendBatchChunk((*sp)[:0], ts)
	if encErr == nil {
		*sp = chunk[:0]
	}
	b.mu.Lock()
	if b.err == nil {
		if encErr != nil {
			b.err = encErr
		} else {
			if b.nsub == 0 {
				b.pending = protocol.AppendBatchHeader(b.pending[:0])
			}
			b.pending = append(b.pending, chunk...)
			b.nsub++
			if len(b.pending) >= DefCoalesce {
				b.flushPendingLocked()
			}
		}
	}
	b.mu.Unlock()
	if encErr == nil {
		chunkPool.Put(sp)
	}
}

// flushPendingLocked seals and ships the coalesced frame under
// construction. Caller holds mu.
func (b *BatchConn) flushPendingLocked() {
	if b.nsub == 0 || b.err != nil {
		return
	}
	protocol.PatchBatchHeader(b.pending, b.nsub)
	if err := b.c.SendFrame(b.pending); err != nil {
		b.err = err
	}
	b.pending = b.pending[:0]
	b.nsub = 0
}

// Flush is the delivery barrier: it force-ships any pending coalesced
// frame, sends a sequenced Flush message, and blocks until the receiver
// echoes it. The receiver enqueues batches in receipt order before
// answering, and the transport is FIFO, so a returned Flush proves
// every prior FeedBatch on this connection has been fed into the remote
// stage's task queues — the moment the in-process cascading close
// reaches between stages.
func (b *BatchConn) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushPendingLocked()
	if b.err != nil {
		return b.err
	}
	b.seq++
	if err := b.c.Send(&protocol.Message{FlushReq: &protocol.Flush{Seq: b.seq}}); err != nil {
		b.err = err
		return err
	}
	m, err := b.c.Recv()
	if err != nil {
		b.err = err
		return err
	}
	if m.FlushReq == nil || m.FlushReq.Seq != b.seq {
		b.err = fmt.Errorf("cluster: flush barrier: expected echo of seq %d, got %s", b.seq, m.Kind())
		return b.err
	}
	return nil
}

// Stat returns the underlying connection's byte counters.
func (b *BatchConn) Stat() protocol.ConnStat { return b.c.Stat() }

// Close closes the underlying connection.
func (b *BatchConn) Close() error { return b.c.Close() }
