package topology_test

import (
	"fmt"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Example_topology declares a two-stage system through the builder: a
// keyed map under the Mixed rebalancer feeding a counting sink. The
// stages stream to each other — the sink consumes mid-interval while
// the map is still processing.
func Example_topology() {
	gen := workload.NewZipfStream(500, 0.9, 0, 1000, 7)
	var sunk atomic.Int64
	fwd := func(int) engine.Operator {
		return engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
			ctx.Emit(tuple.New(t.Key, nil))
		})
	}
	sink := func(int) engine.Operator {
		return engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
			sunk.Add(1)
		})
	}

	sys := topology.New(
		topology.Spout(gen.Next),
		topology.Budget(1000),
		topology.MaxPending(0), // no backpressure in this tiny demo
	).Stage("map", fwd,
		topology.Instances(4),
		topology.WithAlgorithm(topology.AlgMixed), // router + planner + controller
		topology.MinKeys(16),
	).Stage("count", sink,
		topology.Instances(2),
	).Build()
	defer sys.Stop()

	sys.Run(3)
	fmt.Println("stages:", len(sys.Engine.Stages))
	fmt.Println("tuples through both stages:", sunk.Load())
	// Output:
	// stages: 2
	// tuples through both stages: 3000
}

// ExamplePlannerFor shows planner selection by algorithm name.
func ExamplePlannerFor() {
	for _, alg := range []topology.Algorithm{topology.AlgMixed, topology.AlgMinTable, topology.AlgReadj} {
		fmt.Println(topology.PlannerFor(alg, 0, 0).Name())
	}
	// Output:
	// Mixed
	// MinTable
	// Readj
}

// ExampleNewAssignment demonstrates the default partition function: an
// empty routing table over a consistent-hash ring, so every key routes
// to its hash home.
func ExampleNewAssignment() {
	a := topology.NewAssignment(4)
	fmt.Println("instances:", a.Instances())
	fmt.Println("table size:", a.Table().Len())
	fmt.Println("F(k) == h(k):", a.Dest(12345) == a.HashDest(12345))
	// Output:
	// instances: 4
	// table size: 0
	// F(k) == h(k): true
}
