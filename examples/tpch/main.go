// TPC-H Q5 as a continuous query: orders and lineitems stream through
// a windowed equi-join on the Zipf-skewed orderkey, then dimension
// lookups, the region filter and a per-nation revenue aggregation —
// the paper's §V pipeline built on dbgen-lite, declared through the
// topology builder with an independent controller on each stage.
//
//	go run ./examples/tpch
package main

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	cfg := workload.DefaultTPCHConfig()
	gen := workload.NewTPCH(cfg)
	const region = 2 // ASIA, per the Q5 template

	joins := ops.NewQ5JoinFleet(gen, region)
	aggs := ops.NewNationRevenueFleet()

	// Two-stage topology: skewed stateful join, then a 25-key nation
	// aggregation. Each stage carries its own Mixed controller — the
	// join absorbs the FK skew, the aggregation its (mild) nation
	// imbalance. The stages stream to each other: the aggregation
	// consumes mid-interval while the join is still working.
	sys := topology.New(
		topology.Spout(gen.Next),
		topology.Budget(20000),
		// FK popularity shifts every 5 intervals (the Fig. 16 trigger).
		topology.AdvanceEach(func(i int64) {
			if i%5 == 0 {
				gen.Advance()
			}
		}),
	).Stage("q5-join", joins.Factory,
		topology.Instances(10), topology.Window(5),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.1), topology.MinKeys(64),
	).Stage("q5-agg", aggs.Factory,
		topology.Instances(4), topology.Window(5),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.1), topology.MinKeys(8),
	).Build()
	defer sys.Stop()

	intervals := topology.Intervals(25)
	sys.Run(intervals)

	fmt.Printf("continuous TPC-H Q5 over a %d-interval run:\n", intervals)
	fmt.Printf("  mean throughput: %.0f tuples/s\n", sys.Recorder().MeanThroughput())
	fmt.Printf("  join results:    %d rows\n", joins.TotalJoined())
	fmt.Printf("  rebalances:      %d on the join, %d on the aggregation\n",
		sys.ControllerNamed("q5-join").Rebalances(), sys.ControllerNamed("q5-agg").Rebalances())
	fmt.Println("\n  revenue by nation (region ASIA):")
	for n := 0; n < len(workload.Regions)*workload.NationsPerRegion; n++ {
		if workload.RegionOfNation(n) != region {
			continue
		}
		fmt.Printf("    nation %2d: %14.2f\n", n, aggs.TotalRevenue(n))
	}
}
