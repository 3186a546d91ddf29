package main

import (
	"repro/internal/balance"
	"repro/internal/cluster"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/topology"
)

// workloadDef is one benchmark workload: the shape of its input, the
// topology it runs, and how much work a second of --seconds buys.
type workloadDef struct {
	name string
	why  string

	// Input: key-domain size K, Zipf skew z, fluctuation rate f, tuples
	// per interval B, and the instance count of the fixed assigner the
	// fluctuation swaps against.
	keys    int
	z, f    float64
	budget  int
	fluctND int

	// intervalsPerSec sizes the fixed work: a run of --seconds S times
	// N = intervalsPerSec·S/reps intervals per repetition. Measured on
	// the 2-vCPU host the benchmark was defined on, so that S seconds
	// of work take about S seconds there; a faster system finishes the
	// same work sooner, it is not given more.
	intervalsPerSec float64

	// Exactly one of spec and build is set. A spec runs in process
	// through Spec.BuildLocal or, with clustered set, across a
	// coordinator and two workers over unix sockets. tr is nil except in
	// a traced repetition, which builds the same control policies with
	// spans around them instead of deriving them from the algorithm.
	clustered bool
	spec      func(spout engine.SpoutBatch, tr *tracer) *cluster.Spec
	build     func(spout engine.SpoutBatch, tr *tracer) (*topology.System, *controller.Splitter)
}

const (
	minKeys = 64
	// pipeTheta is the count stage's θmax in the pipe workloads — the
	// tolerance the repository's own socialpipe topology ships with. It is
	// below an interval's sampling noise, so a small plan fires in most
	// intervals whatever the seed; at the default 0.08 whether plans fire
	// at all hinges on where the seed's hot keys happen to hash, and the
	// migration metric would swing by half from seed to seed.
	pipeTheta = 0.01
	// The pipe workloads draw many tuples per interval from few keys, so
	// that an interval's cost is its tuples (route, hand-off, operator,
	// emit) and not its distinct keys (harvest, report, plan): 40 tuples
	// per key per interval, against 1.8 in the variance workload.
	pipeKeys   = 1000
	pipeBudget = 40000
	splitMax   = 4
	splitRatio = 1.0
)

var workloads = []*workloadDef{
	{
		name: "pipe-local",
		why:  "two-stage pipeline in one process, 40 tuples per key per interval: the per-tuple data plane (route, hand-off, operator, emit) is over 70% of the time",
		keys: pipeKeys, z: 0.85, f: 0, budget: pipeBudget, fluctND: 4,
		intervalsPerSec: 160,
		spec:            pipeSpec,
	},
	{
		name: "pipe-cluster",
		why:  "the same spec and input across a coordinator and 2 workers over unix sockets: only the wire codec and the sockets are added",
		keys: pipeKeys, z: 0.85, f: 0, budget: pipeBudget, fluctND: 4,
		intervalsPerSec: 160,
		clustered:       true,
		spec:            pipeSpec,
	},
	{
		name: "variance",
		why:  "100k keys re-ranked every interval (f=1), 1.8 tuples per key: harvest, plan and migration — the per-interval control path — are ~65% of the time",
		keys: 100000, z: 0.85, f: 1.0, budget: 20000, fluctND: 8,
		intervalsPerSec: 105,
		build:           singleStage(8, 5, 20000, false),
	},
	{
		name: "hotkey",
		why:  "one key carries ~40% of the load (z=1.5) and is split across replicas: the feed path fans out and folds back instead of routing to one owner",
		keys: 10000, z: 1.5, f: 0, budget: 10000, fluctND: 8,
		intervalsPerSec: 790,
		build:           singleStage(8, 1, 10000, true),
	},
}

func workloadNamed(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pipeSpec is map ×4 (hash-routed forwarder, no controller) → count ×4
// (Mixed rebalancer at θmax = pipeTheta, the recorded stage). Capacity equals the budget on
// both stages, so the queueing model never backs up and the throttle
// never cuts an interval short of B tuples.
func pipeSpec(spout engine.SpoutBatch, tr *tracer) *cluster.Spec {
	count := cluster.StageSpec{Name: "count", Op: opCount, Instances: 4, Capacity: pipeBudget, Target: true}
	if tr == nil {
		count.Algorithm, count.MinKeys, count.Theta = topology.AlgMixed, minKeys, pipeTheta
	} else {
		count.Policies = []control.Policy{tracedRebalancer(tr, pipeTheta)}
	}
	return &cluster.Spec{
		Name:   "pipe",
		Budget: pipeBudget,
		SpoutB: spout,
		Stages: []cluster.StageSpec{
			{Name: "map", Op: opForward, Instances: 4, Capacity: pipeBudget},
			count,
		},
	}
}

// singleStage is count ×nd under the Mixed rebalancer at the default
// θmax, optionally with hot-key splitting. Capacity stays at the
// saturation default B/nd — the split threshold is a multiple of it —
// and the throttle is off instead, so every interval emits B tuples.
func singleStage(nd, window int, budget int64, split bool) func(engine.SpoutBatch, *tracer) (*topology.System, *controller.Splitter) {
	return func(spout engine.SpoutBatch, tr *tracer) (*topology.System, *controller.Splitter) {
		opts := []topology.StageOption{topology.Instances(nd), topology.Window(window)}
		var sp *controller.Splitter
		if tr == nil {
			opts = append(opts, topology.WithAlgorithm(topology.AlgMixed), topology.MinKeys(minKeys))
			if split {
				opts = append(opts, topology.HotKeySplit(splitMax, splitRatio))
			}
		} else {
			// The builder's order: rebalancer first, splitter after it.
			opts = append(opts, topology.WithPolicy(tracedRebalancer(tr, topology.DefTheta)))
			if split {
				sp = controller.NewSplitter(splitMax, splitRatio)
				opts = append(opts, topology.WithPolicy(tracedPolicy{inner: sp, tr: tr}))
			}
		}
		sys := topology.New(
			topology.SpoutBatch(spout),
			topology.Budget(budget),
			topology.MaxPending(0),
		).Stage("count", cluster.MustOp(opCount), opts...).Build()
		if sp == nil {
			sp = sys.Splitter(0)
		}
		return sys, sp
	}
}

// tracedRebalancer is the controller topology.Build and Spec.Policies
// derive from AlgMixed — same planner, same Tab. II defaults, same
// warm-up guard — with its Decide and its planner wrapped in spans. The
// traced run's self-check (identical Recorder series) is what keeps this
// copy from drifting from the builder's.
func tracedRebalancer(tr *tracer, theta float64) control.Policy {
	planner := tracedPlanner{inner: topology.PlannerFor(topology.AlgMixed, 0, 0), tr: tr}
	ctl := controller.New(planner, balance.Config{
		ThetaMax: theta,
		TableMax: topology.DefTableMax,
		Beta:     topology.DefBeta,
	})
	ctl.MinKeys = minKeys
	return tracedPolicy{inner: ctl, tr: tr, countKeys: true}
}

// tracedPolicy spans a policy's Decide, which runs on the policy
// server's goroutine while the driver waits inside the control round.
type tracedPolicy struct {
	inner     control.Policy
	tr        *tracer
	countKeys bool // also count the snapshot's keys (once per stage)
}

func (p tracedPolicy) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	sp := p.tr.begin(spanDecide)
	defer p.tr.end(sp)
	if p.countKeys {
		p.tr.count("stats.snapshot_keys", int64(len(snap.Keys)))
	}
	return p.inner.Decide(env, snap)
}

// tracedPlanner spans plan generation (a child of the decide span) and
// counts plans and the keys they move.
type tracedPlanner struct {
	inner balance.Planner
	tr    *tracer
}

func (p tracedPlanner) Name() string { return p.inner.Name() }

func (p tracedPlanner) Plan(snap *stats.Snapshot, cfg balance.Config) *balance.Plan {
	sp := p.tr.begin(spanPlan)
	plan := p.inner.Plan(snap, cfg)
	p.tr.end(sp)
	p.tr.count("balance.plans", 1)
	p.tr.count("balance.moved_keys", int64(len(plan.Moved)))
	return plan
}
