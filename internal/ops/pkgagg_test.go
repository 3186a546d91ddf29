package ops

import (
	"repro/internal/engine"
	"repro/internal/tuple"
)

// The split-key aggregation pair PKG requires (Fig. 2(a) of the paper),
// as the operators the PKG pipeline tests run: an upstream
// partial-count operator whose keys may be split across two instances,
// and a downstream merge operator that recombines partials per key.

// PartialCount accumulates per-key counts locally and publishes
// (key, partial) tuples downstream at every interval flush — the
// period-p partial-result emission of the PKG implementation.
type PartialCount struct {
	partial map[tuple.Key]int64
	// Published counts total partial tuples emitted, a proxy for the
	// coordination traffic.
	Published int64
}

// NewPartialCount builds one instance's operator.
func NewPartialCount() *PartialCount {
	return &PartialCount{partial: make(map[tuple.Key]int64)}
}

// Process implements engine.Operator.
func (p *PartialCount) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	p.partial[t.Key]++
}

// ProcessBatch implements engine.BatchOperator: the partial-count
// upsert in a tight loop per channel message.
func (p *PartialCount) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	partial := p.partial
	for i := range ts {
		partial[ts[i].Key]++
	}
}

// FlushInterval implements engine.IntervalFlusher: emit one partial per
// touched key, then reset.
func (p *PartialCount) FlushInterval(ctx *engine.TaskCtx) {
	for k, v := range p.partial {
		ctx.Emit(tuple.New(k, v))
		p.Published++
		delete(p.partial, k)
	}
}

// PartialCountFleet tracks instances.
type PartialCountFleet struct {
	Instances map[int]*PartialCount
}

// NewPartialCountFleet returns an empty fleet.
func NewPartialCountFleet() *PartialCountFleet {
	return &PartialCountFleet{Instances: make(map[int]*PartialCount)}
}

// Factory is the stage's operator factory.
func (f *PartialCountFleet) Factory(id int) engine.Operator {
	op := NewPartialCount()
	f.Instances[id] = op
	return op
}

// MergeCount is the downstream merge operator: it folds partial counts
// into per-key totals once per interval (the period-p merge).
type MergeCount struct {
	partial, flushed map[tuple.Key]int64
}

// NewMergeCount builds one instance's operator.
func NewMergeCount() *MergeCount {
	return &MergeCount{partial: make(map[tuple.Key]int64), flushed: make(map[tuple.Key]int64)}
}

// Process implements engine.Operator.
func (m *MergeCount) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	v, _ := t.Value.(int64)
	m.partial[t.Key] += v
}

// ProcessBatch implements engine.BatchOperator.
func (m *MergeCount) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	for i := range ts {
		m.Process(ctx, ts[i])
	}
}

// FlushInterval implements engine.IntervalFlusher: merge the period's
// partials into the totals.
func (m *MergeCount) FlushInterval(ctx *engine.TaskCtx) {
	for k, v := range m.partial {
		m.flushed[k] += v
		delete(m.partial, k)
	}
}

// Result returns the merged total for key k.
func (m *MergeCount) Result(k tuple.Key) int64 { return m.flushed[k] }

// MergeCountFleet tracks instances.
type MergeCountFleet struct {
	Instances map[int]*MergeCount
}

// NewMergeCountFleet returns an empty fleet.
func NewMergeCountFleet() *MergeCountFleet {
	return &MergeCountFleet{Instances: make(map[int]*MergeCount)}
}

// Factory is the stage's operator factory.
func (f *MergeCountFleet) Factory(id int) engine.Operator {
	op := NewMergeCount()
	f.Instances[id] = op
	return op
}

// TotalCount sums a key's merged count across merge instances.
func (f *MergeCountFleet) TotalCount(k tuple.Key) int64 {
	var s int64
	for _, op := range f.Instances {
		s += op.Result(k)
	}
	return s
}
