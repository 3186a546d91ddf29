package ops

import (
	"repro/internal/engine"
	"repro/internal/state"
	"repro/internal/tuple"
)

// SelfJoin is the Stock-data topology: a windowed self-join on stock ID
// that pairs each incoming trade with the recent trades of the same
// symbol ("find potential high-frequency players with dense buying and
// selling behavior"). The per-key window state is exactly what must
// migrate when a key moves — the costliest stateful operator in the
// evaluation.
type SelfJoin struct {
	// Matches counts join pairs produced, for verification.
	Matches int64
	// EmitPairs controls whether joined pairs are emitted downstream
	// (left off in single-stage benchmarks to avoid flooding).
	EmitPairs bool
}

// NewSelfJoin builds one instance's operator.
func NewSelfJoin(emit bool) *SelfJoin { return &SelfJoin{EmitPairs: emit} }

// Process implements engine.Operator: probe the key's window, count
// (and optionally emit) matches, then insert the tuple.
func (j *SelfJoin) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	// Entries is a view into the store, valid until the next call on it:
	// everything that reads probes comes before the Add below.
	probes := ctx.Store.Entries(t.Key)
	j.Matches += int64(len(probes))
	if j.EmitPairs {
		for range probes {
			ctx.Emit(tuple.New(t.Key, t.Value))
		}
	}
	ctx.Store.Add(t.Key, state.Entry{Value: t.Value, Size: t.StateSize})
}

// ProcessBatch implements engine.BatchOperator: per-tuple Process in
// a tight loop, keeping the join logic in one place. Probe-then-insert
// order per tuple is preserved, so the match count for a batch equals
// the per-tuple path exactly (tuples of the same key within one batch
// still pair with each other).
func (j *SelfJoin) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	for i := range ts {
		j.Process(ctx, ts[i])
	}
}

// SelfJoinFleet tracks instances per task id.
type SelfJoinFleet struct {
	Instances map[int]*SelfJoin
	EmitPairs bool
}

// NewSelfJoinFleet returns an empty fleet.
func NewSelfJoinFleet(emit bool) *SelfJoinFleet {
	return &SelfJoinFleet{Instances: make(map[int]*SelfJoin), EmitPairs: emit}
}

// Factory is the stage's operator factory.
func (f *SelfJoinFleet) Factory(id int) engine.Operator {
	op := NewSelfJoin(f.EmitPairs)
	f.Instances[id] = op
	return op
}

// TotalMatches sums matches across instances.
func (f *SelfJoinFleet) TotalMatches() int64 {
	var s int64
	for _, op := range f.Instances {
		s += op.Matches
	}
	return s
}
