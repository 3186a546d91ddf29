package main

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/state"
	"repro/internal/tuple"
)

// Operator names in the cluster registry. Every workload — clustered or
// not — resolves its operators by name through cluster.MustOp, so the
// in-process and the socket run build the very same factories.
const (
	opForward = "perf/forward"
	opCount   = "perf/count"
)

// benchOp is one task's operator instance: it does the workload's work
// (forward the tuple, or append it to the key's windowed state), folds
// the checksum of everything it processed, and — in a traced run —
// times each batch. All fields are confined to the task goroutine until
// the stage has stopped.
type benchOp struct {
	name  string
	emit  bool // forward downstream instead of storing
	timed bool
	sum   fold
	exact map[tuple.Key]int64 // -smoke only

	busy    time.Duration // time inside ProcessBatch/Process
	batches int64
}

func (o *benchOp) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	one := [1]tuple.Tuple{t}
	o.ProcessBatch(ctx, one[:])
}

func (o *benchOp) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	var t0 time.Time
	if o.timed {
		t0 = time.Now()
	}
	for i := range ts {
		k := ts[i].Key
		o.sum.addN(k, 1)
		if o.exact != nil {
			o.exact[k]++
		}
		if o.emit {
			ctx.Emit(ts[i])
		} else {
			ctx.Store.Add(k, state.Entry{Size: ts[i].StateSize})
		}
	}
	if o.timed {
		o.busy += time.Since(t0)
		o.batches++
	}
}

// SplitAbsorb and SplitMerge make the counting operator splittable (the
// forwarder emits mid-interval and must not be split; no workload splits
// its stage). A split key's replicas reduce tuples to their state size;
// the home task receives the sum with the tuple count, which is all the
// checksum needs.
func (o *benchOp) SplitAbsorb(t tuple.Tuple) int64 { return t.StateSize }

func (o *benchOp) SplitMerge(ctx *engine.TaskCtx, k tuple.Key, delta, freq, mem int64) {
	if freq == 0 {
		return
	}
	o.sum.addN(k, uint64(freq))
	if o.exact != nil {
		o.exact[k] += freq
	}
	ctx.Store.Add(k, state.Entry{Value: freq, Size: delta})
}

// opSet collects the operator instances of the run being built. The
// cluster registry's factories are process-wide, so the set they append
// to is too; begin swaps in a fresh one before each repetition's build.
type opSet struct {
	mu    sync.Mutex
	timed bool
	exact bool
	ops   []*benchOp
}

var live opSet

// begin empties the set and fixes how the next build's operators behave.
func (s *opSet) begin(timed, exact bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timed, s.exact, s.ops = timed, exact, nil
}

func (s *opSet) add(name string, emit bool) *benchOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := &benchOp{name: name, emit: emit, timed: s.timed}
	if s.exact {
		o.exact = make(map[tuple.Key]int64)
	}
	s.ops = append(s.ops, o)
	return o
}

// byName sums the instances of one operator. Call only after the
// stages that ran them have stopped.
func (s *opSet) byName(name string) (sum fold, busy time.Duration, exact map[tuple.Key]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range s.ops {
		if o.name != name {
			continue
		}
		sum.merge(o.sum)
		busy += o.busy
		if o.exact != nil {
			if exact == nil {
				exact = make(map[tuple.Key]int64)
			}
			for k, n := range o.exact {
				exact[k] += n
			}
		}
	}
	return sum, busy, exact
}

func init() {
	cluster.RegisterOp(opForward, func(int) engine.Operator { return live.add(opForward, true) })
	cluster.RegisterOp(opCount, func(int) engine.Operator { return live.add(opCount, false) })
}
