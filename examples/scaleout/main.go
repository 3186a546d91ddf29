// Scale-out: the Fig. 15 scenario as a live demo. A word-count
// operator runs at 9 instances until interval 8, then a 10th instance
// joins; consistent hashing limits the immediate reshuffle and the
// Mixed controller rebalances onto the fresh capacity within an
// interval or two.
//
//	go run ./examples/scaleout
package main

import (
	"fmt"
	"os"

	"repro/internal/ops"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	gen := workload.NewSocial(30000, 0.85, 0.002, 3)
	fleet := ops.NewWordCountFleet()
	sys := topology.New(
		topology.Spout(gen.Next),
		topology.Budget(10000),
		topology.AdvanceEach(func(int64) { gen.Advance() }),
	).Stage("wordcount", fleet.Factory,
		topology.Instances(9),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.1), topology.MinKeys(64),
	).Build()
	defer sys.Stop()

	fmt.Println("interval  instances  throughput  rebalanced  migration%")
	report := func(from, to int) {
		for _, m := range sys.Recorder().Series[from:to] {
			fmt.Printf("%8d  %9d  %10.0f  %10v  %10.2f\n",
				m.Index, sys.Stage(0).Instances(), m.Throughput, m.Rebalanced, m.MigrationPct)
		}
	}

	total := topology.Intervals(18)
	pre := 8
	if pre > total {
		pre = total
	}
	sys.Run(pre)
	report(0, pre)

	moved, err := sys.Engine.ResizeStage(0, +1)
	if err != nil {
		fmt.Printf("scale-out failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("--- scale-out: instance 9 added; consistent hashing moved %d state units ---\n", moved)

	sys.Run(total - pre)
	report(pre, total)

	fmt.Printf("\nthe ring reshuffles only ~1/10 of the keys on growth; the Mixed\n")
	fmt.Printf("controller then rebalances the remainder (total rebalances: %d).\n",
		sys.Controller(0).Rebalances())
}
