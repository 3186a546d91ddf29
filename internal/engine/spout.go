package engine

import "repro/internal/tuple"

// emit feeds emitN tuples of the current interval into stage 0 and
// returns how many were actually drawn (fewer when a finite source
// ends early).
func (e *Engine) emit(emitN int64) int64 {
	if e.emitter == nil {
		e.emitter = NewEmitter(e.Stages[0], e.SpoutB, nil, 1, false)
	}
	return e.emitter.Emit(e.interval, emitN)
}

// Emitter is the emission plane detached from the engine: it draws an
// interval's tuples from one spout and feeds them into a BatchSink in
// emitChunk-sized batches — the first stage of an in-process engine,
// or a cluster data connection fanning the same batches to a remote
// stage host. The engine and the cluster coordinator run this exact
// code, which is what pins their chunk boundaries (and hence shuffle
// routing and arrival accounting) bit-identical. It feeds on the
// caller's goroutine; a stage's other concurrent senders are its
// upstream tasks and inbound data connections, each with its own Port.
type Emitter struct {
	spout   SpoutBatch
	sink    BatchSink
	scratch []tuple.Tuple
}

// NewEmitter builds an emission plane drawing from sb into sink. The
// last three parameters are unused; they stay until the repository
// benchmark, which passes nil, 1 and false, stops passing them.
func NewEmitter(sink BatchSink, sb SpoutBatch, _ []SpoutBatch, _ int, _ bool) *Emitter {
	return &Emitter{spout: sb, sink: sink, scratch: make([]tuple.Tuple, emitChunk)}
}

// Emit feeds emitN tuples into the sink and returns how many were
// actually drawn (fewer when a finite source ends early). The first
// parameter (the interval) is unused; it stays until the repository
// benchmark, which passes it, stops passing it.
func (em *Emitter) Emit(_, emitN int64) int64 {
	for j := int64(0); j < emitN; {
		buf := em.scratch[:min(emitN-j, emitChunk)]
		got := em.spout(buf)
		em.sink.FeedBatch(buf[:got])
		j += int64(got)
		if got < len(buf) {
			return j
		}
	}
	return emitN
}
