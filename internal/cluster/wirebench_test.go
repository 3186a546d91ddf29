package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// BenchmarkClusterWire drives the 2-stage forwarding topology on two
// in-process workers over a unix socket — whole intervals of the socket
// data plane, here so it can be CPU/heap-profiled with the standard test
// flags.
func BenchmarkClusterWire(b *testing.B) {
	registerWireBenchOps()
	b.ReportAllocs()
	const msBudget = 2000
	gen := workload.NewZipfStream(10000, 0.85, 0, msBudget, 17)
	spec := &Spec{
		Name:   "wirebench",
		Budget: msBudget,
		SpoutB: gen.NextBatch,
		Stages: []StageSpec{
			{Name: "ms-map", Op: "wirebench/fwd", Instances: 8},
			{Name: "ms-sink", Op: "wirebench/sink", Instances: 8},
		},
	}
	dir := b.TempDir()
	c, err := NewCoordinator(spec, "unix", filepath.Join(dir, "coord.sock"))
	if err != nil {
		b.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w, err := NewWorker("unix", c.Addr(), filepath.Join(dir, fmt.Sprintf("w%d.sock", i)), fmt.Sprintf("w%d", i))
		if err != nil {
			b.Fatal(err)
		}
		go func() { errs <- w.Run() }()
	}
	if err := c.Deploy(2); err != nil {
		b.Fatal(err)
	}
	if err := c.Run(2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = c.Run(b.N)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Shutdown(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	_ = os.RemoveAll(dir)
}

var wireBenchOpsDone bool

func registerWireBenchOps() {
	if wireBenchOpsDone {
		return
	}
	wireBenchOpsDone = true
	RegisterOp("wirebench/fwd", func(int) engine.Operator {
		return engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
			ctx.Emit(tuple.New(t.Key, nil))
		})
	})
	RegisterOp("wirebench/sink", func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) })
}
