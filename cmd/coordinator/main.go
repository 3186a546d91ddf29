// Command coordinator drives a registered topology across a fleet of
// worker processes: it listens for registrations, places stages
// (stage si on worker si mod N), runs the interval clock and the
// control plane over real sockets, and prints the run summary plus
// per-connection byte counters at shutdown.
//
// Self-contained multi-process run (the coordinator execs its own
// workers):
//
//	go build -o /tmp/worker ./cmd/worker
//	go run ./cmd/coordinator -workers 3 -topology socialpipe -worker-bin /tmp/worker
//
// Or start workers by hand against a fixed listen address:
//
//	coordinator -listen 127.0.0.1:7400 -workers 2 &
//	worker -coordinator 127.0.0.1:7400 &
//	worker -coordinator 127.0.0.1:7400 &
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/topology"
)

func main() {
	var (
		workers   = flag.Int("workers", 3, "number of worker registrations to wait for")
		topo      = flag.String("topology", "socialpipe", "registered topology name")
		network   = flag.String("network", "tcp", "socket family: tcp or unix")
		listen    = flag.String("listen", "", "listen address (default: ephemeral)")
		intervals = flag.Int("intervals", 0, "intervals to run (default: topology default, honors REPRO_INTERVALS)")
		workerBin = flag.String("worker-bin", "", "worker binary to exec -workers subprocesses of (default: workers join externally)")
	)
	flag.Parse()
	if err := run(*workers, *topo, *network, *listen, *intervals, *workerBin); err != nil {
		fmt.Fprintln(os.Stderr, "coordinator:", err)
		os.Exit(1)
	}
}

func run(workers int, topo, network, listen string, intervals int, workerBin string) error {
	spec, err := cluster.LookupTopology(topo)
	if err != nil {
		return err
	}
	if listen == "" {
		switch network {
		case "tcp":
			listen = "127.0.0.1:0"
		case "unix":
			dir, err := os.MkdirTemp("", "repro-coord")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			listen = filepath.Join(dir, "coord.sock")
		default:
			return fmt.Errorf("unknown network %q", network)
		}
	}
	if intervals <= 0 {
		intervals = topology.Intervals(24)
	}

	c, err := cluster.NewCoordinator(spec, network, listen)
	if err != nil {
		return err
	}
	fmt.Printf("coordinator: listening on %s!%s, waiting for %d workers\n", network, c.Addr(), workers)

	// With -worker-bin the coordinator owns the whole fleet: exec one
	// worker subprocess per slot, pointed at our own listener.
	var procs []*exec.Cmd
	for i := 0; workerBin != "" && i < workers; i++ {
		cmd := exec.Command(workerBin,
			"-coordinator", c.Addr(),
			"-network", network,
			"-name", fmt.Sprintf("w%d", i))
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("exec worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}

	if err := c.Deploy(workers); err != nil {
		return err
	}
	for si, w := range c.Placement() {
		fmt.Printf("  stage %d (%s) -> worker %d\n", si, spec.Stages[si].Name, w)
	}

	fmt.Printf("running %d intervals\n", intervals)
	if err := c.Run(intervals); err != nil {
		return err
	}

	rec := c.Recorder()
	fmt.Printf("\ntarget stage: mean throughput %.0f tuples/s, mean latency %.2f ms, rebalances %d\n",
		rec.MeanThroughput(), rec.MeanLatency(), c.Rebalances())
	for si := range spec.Stages {
		fmt.Printf("  stage %d (%s): processed %d tuples\n", si, spec.Stages[si].Name, c.Processed(si))
	}

	stats, err := c.Shutdown()
	fmt.Println()
	fmt.Print(cluster.FormatStats(stats))
	for _, p := range procs {
		if werr := p.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("worker exit: %w", werr)
		}
	}
	return err
}
