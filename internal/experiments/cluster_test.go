package experiments

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// clusterOps numbers the operator names runCluster registers: every run
// builds a fresh operator fleet, and a name registers only once per
// process (so -count=N would otherwise panic).
var clusterOps atomic.Int64

// runCluster is a runner that deploys the declaration on a coordinator
// and two in-process workers over unix sockets. Each stage's in-process
// factory is registered under a fresh name and shipped as that name, so
// the workers build their stages the way a worker process would.
func runCluster(t *testing.T, spec *topology.Spec, intervals int) []metrics.Interval {
	t.Helper()
	const workers = 2
	for si := range spec.Stages {
		st := &spec.Stages[si]
		st.Op = fmt.Sprintf("experiments/%s/%d", st.Name, clusterOps.Add(1))
		topology.RegisterOp(st.Op, st.Factory)
		st.Factory = nil
	}
	dir := t.TempDir()
	c, err := cluster.NewCoordinator(spec, "unix", filepath.Join(dir, "c.sock"))
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	errs := make(chan error, workers)
	for i := range workers {
		w, err := cluster.NewWorker("unix", c.Addr(), filepath.Join(dir, fmt.Sprintf("w%d.sock", i)), fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		go func() { errs <- w.Run() }()
	}
	if err := c.Deploy(workers); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := c.Run(intervals); err != nil {
		t.Fatalf("run: %v", err)
	}
	series := append([]metrics.Interval(nil), c.Recorder().Series...)
	if _, err := c.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	return series
}

// TestFig14aOverCluster regenerates Fig. 14(a) with every system
// deployed on a cluster — Storm, Readj with its tuned planner
// (StageSpec.Planner), Mixed, PKG with its capacity shave and latency floor,
// and MinTable — and requires the committed golden byte for byte.
func TestFig14aOverCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("exhibit regeneration skipped in -short")
	}
	start := time.Now()
	r := fig14a(func(spec *topology.Spec, intervals int) []metrics.Interval {
		return runCluster(t, spec, intervals)
	})
	checkGolden(t, "fig14a", maskedCSV(t, r))
	t.Logf("fig14a over the cluster: %v", time.Since(start).Round(time.Millisecond))
}
