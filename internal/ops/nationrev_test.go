package ops

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// NationRevenue accumulates in integer micro-units precisely so that
// the arrival order of the join stage's revenue contributions — which
// pipelined transfer and multi-feeder emission both scramble — cannot
// change the totals. These tests pin that contract.

// TestNationRevenueOrderInsensitive feeds the same revenue multiset in
// two opposite orders straight into one instance: the totals must be
// bit-identical, which float accumulation does not guarantee.
func TestNationRevenueOrderInsensitive(t *testing.T) {
	vals := make([]float64, 0, 2000)
	x := 1.0
	for i := 0; i < 2000; i++ {
		x = x*1.0061 + 0.17 // spread magnitudes over several orders
		if x > 1e6 {
			x /= 3e5
		}
		vals = append(vals, x)
	}
	feed := func(order func(i int) int) int64 {
		n := NewNationRevenue()
		for i := range vals {
			n.Process(nil, tuple.New(3, vals[order(i)]))
		}
		return n.Revenue[3]
	}
	fwd := feed(func(i int) int { return i })
	rev := feed(func(i int) int { return len(vals) - 1 - i })
	if fwd != rev {
		t.Fatalf("accumulation is order-dependent: forward %d, reverse %d µ-units", fwd, rev)
	}
	if fwd == 0 {
		t.Fatal("nothing accumulated; the pin is vacuous")
	}
}

// runQ5Feeders drives the 2-stage Q5 topology, streaming or under the
// store-and-forward reference, at the given spout parallelism and
// returns the aggregation fleet's per-nation totals in µ-units.
func runQ5Feeders(ref bool, feeders int) map[int]int64 {
	cfg := workload.DefaultTPCHConfig()
	cfg.Customers, cfg.Suppliers, cfg.OrderPool = 2000, 200, 800
	gen := workload.NewTPCH(cfg)
	joins := NewQ5JoinFleet(gen, 2)
	aggs := NewNationRevenueFleet()
	s0 := engine.NewStage("q5join", 4, joins.Factory, 2, asgRouter(4))
	s1 := engine.NewStage("q5agg", 2, aggs.Factory, 2, asgRouter(2))
	ecfg := engine.Config{Budget: 12000, MaxPendingFactor: 2, MigrationFactor: 1, Feeders: feeders}
	e, _ := newEngine(ref, gen.Next, ecfg, s0, s1)
	e.Run(4)
	e.Stop()
	out := make(map[int]int64)
	for n := 0; n < len(workload.Regions)*workload.NationsPerRegion; n++ {
		var s int64
		for _, op := range aggs.Instances {
			s += op.Revenue[tuple.Key(n)]
		}
		out[n] = s
	}
	return out
}

// TestNationRevenuePipelinedFeedersMatchStoreAndForward pins the
// end-to-end guarantee: a streaming multi-feeder Q5 run reproduces the
// serial store-and-forward reference's totals exactly, µ-unit for µ-unit, even
// though the aggregation instances see the contributions in a
// completely different order.
func TestNationRevenuePipelinedFeedersMatchStoreAndForward(t *testing.T) {
	ref := runQ5Feeders(true, 1)
	var nonzero int
	for _, v := range ref {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("store-and-forward run produced no revenue; the pin is vacuous")
	}
	for _, mode := range []struct {
		name    string
		feeders int
	}{
		{"pipelined", 1},
		{"pipelined+3feeders", 3},
	} {
		got := runQ5Feeders(false, mode.feeders)
		for n, want := range ref {
			if got[n] != want {
				t.Fatalf("%s: nation %d revenue %d µ-units, store-and-forward %d", mode.name, n, got[n], want)
			}
		}
	}
}
