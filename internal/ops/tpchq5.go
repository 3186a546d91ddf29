package ops

import (
	"math"

	"repro/internal/engine"
	"repro/internal/state"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// This file implements the continuous TPC-H Q5 pipeline of §V: a
// windowed equi-join of the orders and lineitem fact streams on
// orderkey (the skewed, stateful operator the rebalancer manages),
// followed by dimension lookups (customer→nation, supplier→nation),
// the region filter, and a revenue aggregation grouped by nation.

// Q5Join is the stage-0 operator: buffer both streams per orderkey in
// the sliding window; every order×lineitem pair within the window with
// matching orderkey joins. Joined rows that survive the region filter
// are emitted keyed by nation for downstream aggregation.
type Q5Join struct {
	gen *workload.TPCH
	// Region is the r_name filter (index into workload.Regions).
	Region int
	// Joined counts emitted join results, for verification.
	Joined int64
}

// NewQ5Join builds one instance's operator over the generator's
// dimension tables (read-only, safe to share across instances).
func NewQ5Join(gen *workload.TPCH, region int) *Q5Join {
	return &Q5Join{gen: gen, Region: region}
}

// Process implements engine.Operator.
func (q *Q5Join) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	// Entries is a view into the store, valid until the next call on it:
	// both probe loops finish (join only emits) before the Add below.
	switch v := t.Value.(type) {
	case workload.Order:
		// Probe buffered lineitems of this orderkey.
		for _, e := range ctx.Store.Entries(t.Key) {
			if li, ok := e.Value.(workload.Lineitem); ok {
				q.join(ctx, v, li)
			}
		}
	case workload.Lineitem:
		for _, e := range ctx.Store.Entries(t.Key) {
			if o, ok := e.Value.(workload.Order); ok {
				q.join(ctx, o, v)
			}
		}
	}
	ctx.Store.Add(t.Key, state.Entry{Value: t.Value, Size: t.StateSize})
}

// ProcessBatch implements engine.BatchOperator: the windowed-join loop
// over a whole channel message, preserving per-tuple probe-then-insert
// order so intra-batch order/lineitem pairs still join.
func (q *Q5Join) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	for i := range ts {
		q.Process(ctx, ts[i])
	}
}

// join applies the c ⋈ n and s ⋈ n lookups and the region filter, then
// emits the revenue contribution keyed by nation.
func (q *Q5Join) join(ctx *engine.TaskCtx, o workload.Order, li workload.Lineitem) {
	// Q5 requires customer and supplier in the same nation.
	cn := q.gen.NationOfCust(o.CustKey)
	sn := q.gen.NationOfSupp(li.SuppKey)
	if cn != sn || workload.RegionOfNation(sn) != q.Region {
		return
	}
	rev := li.ExtendedPrice * (1 - li.Discount)
	ctx.Emit(tuple.New(tuple.Key(sn), rev))
	q.Joined++
}

// Q5JoinFleet tracks instances.
type Q5JoinFleet struct {
	Instances map[int]*Q5Join
	Gen       *workload.TPCH
	Region    int
}

// NewQ5JoinFleet returns a fleet bound to one generator and region.
func NewQ5JoinFleet(gen *workload.TPCH, region int) *Q5JoinFleet {
	return &Q5JoinFleet{Instances: make(map[int]*Q5Join), Gen: gen, Region: region}
}

// Factory is the stage's operator factory.
func (f *Q5JoinFleet) Factory(id int) engine.Operator {
	op := NewQ5Join(f.Gen, f.Region)
	f.Instances[id] = op
	return op
}

// TotalJoined sums join results across instances.
func (f *Q5JoinFleet) TotalJoined() int64 {
	var s int64
	for _, op := range f.Instances {
		s += op.Joined
	}
	return s
}

// RevenueUnit is the fixed-point resolution NationRevenue accumulates
// at: one micro-currency-unit. Integer accumulation is exact and
// therefore order-insensitive — float addition is not associative, and
// under pipelined transfer the join tasks' revenue contributions reach
// an aggregation instance in nondeterministic order. Each contribution
// rounds to the grid once, at arrival, so the only tolerance against an
// infinitely precise sum is ±0.5 µ-units per joined row; totals are
// bit-identical across transfer modes and migration histories (pinned
// by test).
const RevenueUnit = 1e-6

// NationRevenue is the stage-1 operator: GROUP BY n_name SUM(revenue),
// 25 keys, effectively unskewed.
type NationRevenue struct {
	// Revenue holds each nation's accumulated revenue in integer
	// multiples of RevenueUnit.
	Revenue map[tuple.Key]int64
}

// NewNationRevenue builds one instance's operator.
func NewNationRevenue() *NationRevenue {
	return &NationRevenue{Revenue: make(map[tuple.Key]int64)}
}

// revenueUnits converts one emitted revenue contribution to the
// fixed-point grid.
func revenueUnits(rev float64) int64 {
	return int64(math.Round(rev / RevenueUnit))
}

// Process implements engine.Operator.
func (n *NationRevenue) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	if rev, ok := t.Value.(float64); ok {
		n.Revenue[t.Key] += revenueUnits(rev)
	}
}

// ProcessBatch implements engine.BatchOperator: one map-lookup loop
// per channel message for the 25-key aggregation.
func (n *NationRevenue) ProcessBatch(ctx *engine.TaskCtx, ts []tuple.Tuple) {
	rev := n.Revenue
	for i := range ts {
		if r, ok := ts[i].Value.(float64); ok {
			rev[ts[i].Key] += revenueUnits(r)
		}
	}
}

// NationRevenueFleet tracks instances.
type NationRevenueFleet struct {
	Instances map[int]*NationRevenue
}

// NewNationRevenueFleet returns an empty fleet.
func NewNationRevenueFleet() *NationRevenueFleet {
	return &NationRevenueFleet{Instances: make(map[int]*NationRevenue)}
}

// Factory is the stage's operator factory.
func (f *NationRevenueFleet) Factory(id int) engine.Operator {
	op := NewNationRevenue()
	f.Instances[id] = op
	return op
}

// TotalRevenue sums revenue for a nation across instances. The
// per-instance accumulators are integers, so the float conversion
// happens once on the exact total.
func (f *NationRevenueFleet) TotalRevenue(nation int) float64 {
	var s int64
	for _, op := range f.Instances {
		s += op.Revenue[tuple.Key(nation)]
	}
	return float64(s) * RevenueUnit
}
