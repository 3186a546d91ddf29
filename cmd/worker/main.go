// Command worker hosts pipeline stages for a cluster coordinator: it
// registers, builds whatever stages it is assigned, serves the
// interval drive over its session socket, and exits on the
// coordinator's shutdown.
//
//	worker -coordinator 127.0.0.1:7400 [-network tcp] [-name w0] [-data 127.0.0.1:0]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
)

func main() {
	var (
		coord   = flag.String("coordinator", "", "coordinator address to register with (required)")
		network = flag.String("network", "tcp", "socket family: tcp or unix")
		name    = flag.String("name", "", "worker name (defaults to worker-<pid>)")
		data    = flag.String("data", "", "data-plane listen address (default: ephemeral)")
	)
	flag.Parse()
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "worker: -coordinator is required")
		os.Exit(2)
	}
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	dataAddr := *data
	if dataAddr == "" {
		switch *network {
		case "tcp":
			dataAddr = "127.0.0.1:0"
		case "unix":
			dir, err := os.MkdirTemp("", "repro-worker")
			if err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
			dataAddr = filepath.Join(dir, "data.sock")
		default:
			fmt.Fprintf(os.Stderr, "worker: unknown network %q\n", *network)
			os.Exit(2)
		}
	}
	if err := cluster.RunWorker(*network, *coord, dataAddr, *name); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}
