package experiments

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Fig01 recreates the paper's motivating example (Fig. 1): a
// three-operator pipeline where the middle operator's *internal*
// imbalance throttles the whole topology. Operator 1 (a balanced,
// shuffled map) is forced to slow down by backpressure from operator
// 2's hottest instance, and operator 3 starves — even though every
// *operator* has enough aggregate capacity. Keeping task instances
// balanced inside operator 2 (Mixed) releases the pipeline.
func Fig01() *Result {
	r := &Result{
		ID:     "fig01",
		Title:  "Motivating example: intra-operator imbalance backpressures the pipeline",
		Header: []string{"op2 scheme", "spout emitted/s", "op2 throughput/s", "op3 received/s"},
		Notes:  "hash skew inside operator 2 throttles operator 1 (backpushing) and starves operator 3",
	}
	const budget = 9000
	for _, alg := range []topology.Algorithm{topology.AlgStorm, topology.AlgMixed, topology.AlgIdeal} {
		emitted, thr, sunk := runPipeline(alg, budget)
		r.Rows = append(r.Rows, []string{string(alg), f0(emitted), f0(thr), f0(sunk)})
	}
	return r
}

// sinkCounter counts tuples reaching operator 3. The counter is shared
// by all sink instances, hence atomic.
type sinkCounter struct{ n *atomic.Int64 }

func (s sinkCounter) Process(ctx *engine.TaskCtx, t tuple.Tuple) { s.n.Add(1) }

func runPipeline(alg topology.Algorithm, budget int64) (emitted, thr, sunk float64) {
	gen := workload.NewZipfStream(300, 1.0, 0.5, budget, 67)

	// Operator 1: balanced pass-through map (shuffle-routed).
	mapOp := func(int) engine.Operator {
		return engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
			out := t
			ctx.Emit(out)
		})
	}
	// Operator 2: the keyed, skew-prone stage under study. Six
	// instances over 300 keys: the hottest keys carry a full instance's
	// share each, the regime of Fig. 7(b). AlgStorm/AlgMixed route by
	// assignment (only Mixed gets a planner); AlgIdeal shuffles.
	countAndForward := func(int) engine.Operator {
		return engine.OperatorFunc(func(ctx *engine.TaskCtx, t tuple.Tuple) {
			ctx.Emit(tuple.New(t.Key, nil))
		})
	}
	// Operator 3: sink counting arrivals.
	var sinkN atomic.Int64
	sinkOp := func(int) engine.Operator { return sinkCounter{&sinkN} }

	// The shuffle stages see the streaming transfer's mid-interval
	// interleaving, and the output still does not depend on it: every
	// tuple costs 1, so a round-robin's per-destination totals are the
	// same in any arrival order.
	sys := topology.New(topology.Spout(gen.Next), topology.Budget(budget)).
		Stage("op1-map", mapOp,
			topology.Instances(3), topology.WithAlgorithm(topology.AlgIdeal)).
		Stage("op2-keyed", countAndForward,
			topology.Instances(6), topology.WithAlgorithm(alg),
			topology.MinKeys(16),
			topology.Target()). // operator 2 drives the backpressure and the metrics
		Stage("op3-sink", sinkOp,
			topology.Instances(3), topology.WithAlgorithm(topology.AlgIdeal)).
		Build()
	defer sys.Stop()
	if ar := sys.StageNamed("op2-keyed").AssignmentRouter(); ar != nil {
		sys.Engine.AdvanceWorkload = func(int64) { gen.Advance(ar.Assignment()) }
	}

	const intervals = 16
	sys.Run(intervals)
	var em, th float64
	for _, m := range sys.Recorder().Series[4:] {
		em += float64(m.Emitted)
		th += m.Throughput
	}
	n := float64(intervals - 4)
	return em / n, th / n, float64(sinkN.Load()) / float64(intervals)
}
