// Viralkey: contention-aware hot-key splitting under a flash crowd.
// A uniform-ish stream suddenly concentrates on one key — the kind of
// single-key contention no assignment function can balance away,
// because a key is the atomic unit of routing. The detector splits the
// viral key across a replica set (tuples fan out round-robin, replicas
// hold commutative deltas), the rebalancer keeps working around it
// (it plans the other keys against the load the split key puts on each
// replica, and holds while that load alone is past its bound), and when
// the crowd moves on the key folds back — counts exactly as if it had
// never been split.
//
//	go run ./examples/viralkey
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/ops"
	"repro/internal/topology"
	"repro/internal/tuple"
)

func main() {
	const (
		nd     = 6
		budget = 6000
		keys   = 3000
		viral  = tuple.Key(0)
	)
	rng := rand.New(rand.NewSource(7))
	viralShare := 0.0 // fraction of traffic hitting the viral key
	var viralFed int64
	spout := func() tuple.Tuple {
		if rng.Float64() < viralShare {
			viralFed++
			return tuple.New(viral, nil)
		}
		return tuple.New(tuple.Key(1+rng.Intn(keys)), nil)
	}

	// Per-task capacity defaults to Budget/Instances = 1000 cost units
	// per interval; HotKeySplit(3, 0.5) splits any key whose interval
	// cost reaches half that capacity, at most 3 keys at once. The low
	// threshold keeps the key split while backpressure from the pre-split
	// interval is still draining (measured cost dips with emission).
	fleet := ops.NewWordCountFleet()
	sys := topology.New(
		topology.Spout(spout),
		topology.Budget(budget),
	).Stage("count", fleet.Factory,
		topology.Instances(nd),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.08), topology.MinKeys(64),
		topology.HotKeySplit(3, 0.5),
	).Build()
	defer sys.Stop()

	st := sys.Stage(0)
	total := topology.Intervals(18)
	fmt.Println("interval  emitted  throughput   skew  split set")
	for i := 0; i < total; i++ {
		switch i {
		case total / 3:
			viralShare = 0.45 // flash crowd: one key takes ~45% of traffic
			fmt.Println("--- key 0 goes viral: 45% of all traffic ---")
		case 2 * total / 3:
			viralShare = 0
			fmt.Println("--- crowd moves on ---")
		}
		sys.Run(1)
		m := sys.Recorder().Series[i]
		tag := "-"
		if split := st.Splits(); len(split) > 0 {
			tag = fmt.Sprint(split)
		}
		fmt.Printf("%8d  %7d  %10.0f  %5.2f  %s\n",
			i, m.Emitted, m.Throughput, m.Skewness, tag)
	}

	sp := sys.Splitter(0)
	ctl := sys.Controller(0)
	fmt.Println()
	fmt.Printf("split announcements: %d  max concurrently split: %d\n",
		sp.Announced, sp.MaxActive)
	fmt.Printf("rebalances: %d  intervals held around the split: %d  plan moves pinned by the split guard: %d\n",
		ctl.Rebalances(), ctl.HeldSplit, ctl.SplitPinned)

	// Exactness: after the final fold the fleet's aggregate for the viral
	// key equals what the spout fed — splitting is invisible to the
	// operator's counts.
	if got := fleet.TotalCount(viral); got == viralFed {
		fmt.Printf("viral key folded back exactly: %d tuples counted, %d fed\n", got, viralFed)
	} else {
		fmt.Printf("MISMATCH: counted %d, spout fed %d\n", got, viralFed)
	}
}
