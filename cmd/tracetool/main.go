// Command tracetool records synthetic workloads as CSV traces and
// replays traces through the partitioning system, printing the
// per-interval metric series. It turns the reproduction into a tool
// usable against real traces (the paper's Social/Stock feeds were
// exactly such recordings).
//
// Generate a trace:
//
//	tracetool -gen stock -n 200000 -out stock.csv
//	tracetool -gen zipf -k 10000 -z 0.85 -n 100000 -out zipf.csv
//
// Replay it:
//
//	tracetool -replay stock.csv -alg mixed -instances 10 -intervals 20
//	tracetool -replay stock.csv -alg storm -intervals 20
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

func main() {
	var (
		gen       = flag.String("gen", "", "generate a trace: zipf | social | stock | tpch")
		n         = flag.Int("n", 100000, "tuples to generate")
		k         = flag.Int("k", 10000, "key-domain size (zipf/social)")
		z         = flag.Float64("z", 0.85, "Zipf skew")
		f         = flag.Float64("f", 1.0, "fluctuation rate (zipf)")
		seed      = flag.Int64("seed", 1, "generator seed")
		out       = flag.String("out", "", "output trace file (default stdout)")
		replay    = flag.String("replay", "", "replay a trace file")
		alg       = flag.String("alg", "mixed", "algorithm: mixed|mintable|minmig|mixedbf|compact|readj|storm|pkg|ideal")
		instances = flag.Int("instances", 10, "operator parallelism N_D")
		intervals = flag.Int("intervals", 20, "intervals to run")
		budget    = flag.Int("budget", 10000, "tuples per interval")
		theta     = flag.Float64("theta", 0.08, "imbalance tolerance θmax")
		window    = flag.Int("window", 1, "state window w")
	)
	flag.Parse()

	switch {
	case *gen != "":
		if err := generate(*gen, *n, *k, *z, *f, *seed, *out); err != nil {
			fmt.Fprintln(os.Stderr, "tracetool:", err)
			os.Exit(1)
		}
	case *replay != "":
		if err := replayTrace(*replay, *alg, *instances, *intervals, *budget, *theta, *window); err != nil {
			fmt.Fprintln(os.Stderr, "tracetool:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(kind string, n, k int, z, f float64, seed int64, out string) error {
	var next func() tuple.Tuple
	switch kind {
	case "zipf":
		g := workload.NewZipfStream(k, z, f, int64(n), seed)
		next = g.Next
	case "social":
		g := workload.NewSocial(k, z, 0.002, seed)
		next = g.Next
	case "stock":
		g := workload.NewStock(0, z, seed)
		next = g.Next
	case "tpch":
		cfg := workload.DefaultTPCHConfig()
		cfg.Seed = seed
		g := workload.NewTPCH(cfg)
		next = g.Next
	default:
		return fmt.Errorf("unknown generator %q", kind)
	}
	tuples := make([]tuple.Tuple, n)
	for i := range tuples {
		tuples[i] = next()
	}
	w := os.Stdout
	if out != "" {
		file, err := os.Create(out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	if err := workload.WriteTrace(w, tuples); err != nil {
		return err
	}
	if out != "" {
		fmt.Printf("wrote %d tuples to %s\n", n, out)
	}
	return nil
}

func replayTrace(path, alg string, nd, intervals, budget int, theta float64, window int) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := workload.ReadTrace(file)
	file.Close()
	if err != nil {
		return err
	}
	tr.Loop = true
	fmt.Printf("replaying %s (%d tuples) under %s, N_D=%d, theta=%.2f\n\n",
		path, tr.Len(), alg, nd, theta)

	sys := topology.New(topology.Spout(tr.Spout()), topology.Budget(int64(budget))).
		Stage("operator", func(int) engine.Operator { return engine.StatefulCount },
			topology.Instances(nd),
			topology.Window(window),
			topology.WithAlgorithm(topology.Algorithm(alg)),
			topology.Theta(theta),
			topology.MinKeys(32)).
		Build()
	defer sys.Stop()

	fmt.Println("interval  throughput  latency_ms  skewness  rebalanced  migration%  table")
	for i := 0; i < intervals; i++ {
		sys.Run(1)
		m := sys.Recorder().Series[i]
		fmt.Printf("%8d  %10.0f  %10.1f  %8.3f  %10v  %10.2f  %5d\n",
			m.Index, m.Throughput, m.LatencyMs, m.Skewness, m.Rebalanced, m.MigrationPct, m.TableSize)
	}
	fmt.Printf("\nmean throughput %.0f tuples/s, mean latency %.1f ms\n",
		sys.Recorder().MeanThroughput(), sys.Recorder().MeanLatency())
	if sys.Controller(0) != nil {
		fmt.Printf("rebalances: %d\n", sys.Rebalances())
	}
	return nil
}
