package ops

import (
	"repro/internal/engine"
	"repro/internal/pkgpart"
	"repro/internal/tuple"
)

// This file implements the split-key aggregation pair PKG requires
// (Fig. 2(a) of the paper): an upstream partial-count operator whose
// keys may be split across two instances, and a downstream merge
// operator that recombines partials per key. The merge traffic and
// merge work are the overhead the paper charges PKG for in Fig. 14.

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

// SplitAbsorb implements engine.SplitFolder: the partial count is an
// occurrence sum, so the replica delta is the tuple count.
func (p *PartialCount) SplitAbsorb(t tuple.Tuple) int64 { return 1 }

// SplitMerge folds replica occurrences back into the home partial.
// The fold runs before FlushInterval, so the emitted partials (and
// Published) match an unsplit run exactly.
func (p *PartialCount) SplitMerge(ctx *engine.TaskCtx, k tuple.Key, delta, freq, mem int64) {
	if delta == 0 {
		return
	}
	p.partial[k] += delta
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
// into the authoritative per-key totals via pkgpart.Merger.
type MergeCount struct {
	M *pkgpart.Merger
}

// NewMergeCount builds one instance's operator.
func NewMergeCount() *MergeCount { return &MergeCount{M: pkgpart.NewMerger()} }

// Process implements engine.Operator.
func (m *MergeCount) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	v, _ := t.Value.(int64)
	m.M.Add(t.Key, v)
}

// ProcessBatch implements engine.BatchOperator: fold a whole message
// of partials with the merger resolved once.
func (m *MergeCount) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	mg := m.M
	for i := range ts {
		v, _ := ts[i].Value.(int64)
		mg.Add(ts[i].Key, v)
	}
}

// SplitAbsorb implements engine.SplitFolder: partial tuples carry an
// int64 count, and the merge is a per-key sum — the delta is the sum
// of absorbed partial values.
func (m *MergeCount) SplitAbsorb(t tuple.Tuple) int64 {
	v, _ := t.Value.(int64)
	return v
}

// SplitMerge folds the summed replica partials into the home merger.
func (m *MergeCount) SplitMerge(ctx *engine.TaskCtx, k tuple.Key, delta, freq, mem int64) {
	if freq == 0 {
		return
	}
	m.M.Add(k, delta)
}

// FlushInterval implements engine.IntervalFlusher (period-p merge).
func (m *MergeCount) FlushInterval(ctx *engine.TaskCtx) {
	m.M.Flush()
}

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
		s += op.M.Result(k)
	}
	return s
}
