package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/protocol"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// The kernels replay a slice of the workload's own input through one
// layer's public entry point, in the chunk size the engine feeds it
// (engine.emitChunk), outside any run: what the layer costs per tuple
// with nothing else on the CPU.
const (
	kernelTuples = 1 << 18
	kernelChunk  = 1024
	kernelPasses = 3
)

// kernelChunks cuts keys into unit-cost tuple chunks, as the replay spout
// would hand them out.
func kernelChunks(keys []tuple.Key) [][]tuple.Tuple {
	var chunks [][]tuple.Tuple
	var seq uint64
	for len(keys) > 0 {
		n := kernelChunk
		if n > len(keys) {
			n = len(keys)
		}
		c := make([]tuple.Tuple, n)
		for i := range c {
			seq++
			c[i] = tuple.Tuple{Key: keys[i], Cost: 1, StateSize: 1, Seq: seq}
		}
		chunks = append(chunks, c)
		keys = keys[n:]
	}
	return chunks
}

// perTuple runs pass kernelPasses times and returns the median
// nanoseconds per tuple. pass returns the time it spent in the layer.
func perTuple(chunks [][]tuple.Tuple, pass func() time.Duration) float64 {
	var tuples int
	for _, c := range chunks {
		tuples += len(c)
	}
	var ns []float64
	for p := 0; p < kernelPasses; p++ {
		ns = append(ns, float64(pass())/float64(tuples))
	}
	return median(ns)
}

// routeKernel times route.Assignment.DestTuples (ring LUT plus routing
// table) against the run's final assignment.
func routeKernel(chunks [][]tuple.Tuple, asg *route.Assignment) float64 {
	dsts := make([]int, kernelChunk)
	return perTuple(chunks, func() time.Duration {
		t0 := time.Now()
		for _, c := range chunks {
			asg.DestTuples(c, dsts)
		}
		return time.Since(t0)
	})
}

// observeKernel times stats.Tracker.ObserveBatch, closing the tracker's
// interval every budget tuples as a task would (the close is not timed).
func observeKernel(chunks [][]tuple.Tuple, budget int) float64 {
	return perTuple(chunks, func() time.Duration {
		tk := stats.NewTracker(1)
		var spent time.Duration
		seen := 0
		for _, c := range chunks {
			t0 := time.Now()
			tk.ObserveBatch(c)
			spent += time.Since(t0)
			if seen += len(c); seen >= budget {
				tk.EndInterval()
				seen = 0
			}
		}
		return spent
	})
}

// wireKernel times the binary wire on one chunk per frame: encode is
// AppendBatchChunk into a sealed frame plus the framed write, decode is
// the framed codec's Recv of the same bytes. Nanoseconds and payload
// bytes per tuple, over all passes.
func wireKernel(chunks [][]tuple.Tuple) (encNs, decNs, bytesPerTuple float64, err error) {
	var buf bytes.Buffer
	codec := protocol.NewFramedCodec(&buf)
	codec.EnableBinary()
	var frame []byte
	var enc, dec time.Duration
	var tuples float64
	for p := 0; p < kernelPasses; p++ {
		for _, c := range chunks {
			t0 := time.Now()
			frame = protocol.AppendBatchHeader(frame[:0])
			if frame, err = protocol.AppendBatchChunk(frame, c); err != nil {
				return 0, 0, 0, err
			}
			protocol.PatchBatchHeader(frame, 1)
			if err = codec.SendFrame(frame); err != nil {
				return 0, 0, 0, err
			}
			t1 := time.Now()
			m, err := codec.Recv()
			dec += time.Since(t1)
			enc += t1.Sub(t0)
			if err != nil || m.Batch == nil || len(m.Batch.Tuples) != len(c) {
				return 0, 0, 0, fmt.Errorf("wire kernel: frame did not decode to its %d tuples: %v", len(c), err)
			}
			tuples += float64(len(c))
		}
	}
	return float64(enc) / tuples, float64(dec) / tuples, float64(codec.SentBytes()) / tuples, nil
}
