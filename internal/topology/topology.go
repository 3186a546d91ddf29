// Package topology is the declarative construction API for multi-stage
// systems: a builder that assembles spout → stage → … → stage pipelines
// with per-stage routing, per-stage rebalance controllers and
// per-stage capacity, wiring the engine, controller and planner layers
// in one place.
//
//	sys := topology.New(topology.Spout(gen.Next), topology.Budget(20000)).
//		Stage("join", joins.Factory,
//			topology.Instances(10), topology.Window(5),
//			topology.WithAlgorithm(topology.AlgMixed), topology.MinKeys(64)).
//		Stage("agg", aggs.Factory,
//			topology.Instances(4), topology.Window(5)).
//		Build()
//	defer sys.Stop()
//	sys.Run(25)
//
// The builder fills in a Spec, the same declaration in plain data. A
// Spec names its operators by registered name (RegisterOp), so one
// value runs in this process or, through cluster.NewCoordinator, across
// worker processes:
//
//	spec := &topology.Spec{Budget: 20000, SpoutB: gen.NextBatch,
//		Stages: []topology.StageSpec{
//			{Name: "join", Op: "q/join", Instances: 10, Window: 5,
//				Algorithm: topology.AlgMixed, MinKeys: 64},
//			{Name: "agg", Op: "q/agg", Instances: 4, Window: 5},
//		}}
//	sys := spec.BuildLocal()
//
// Stages stream to each other (stage s+1 consumes while stage s is
// still processing). Assignment-routed stages migrate keys between
// intervals, on the sealed stage (see engine.Stage.ApplyPlan). Every stage may carry its own control loop —
// the builder assembles the stage's policies (the algorithm-derived
// rebalance controller plus any WithPolicy additions, e.g.
// longterm.AutoScaler) into one control.Loop per managed stage, applying
// rebalance, scale-out and scale-in commands over protocol
// messages on the in-process loopback.
package topology

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/balance"
	"repro/internal/compact"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/hashring"
	"repro/internal/metrics"
	"repro/internal/readj"
	"repro/internal/route"
	"repro/internal/tuple"
)

// Algorithm names a rebalance strategy (or split-key baseline) for one
// stage: it selects both the input router and, where one exists, the
// planner the stage's controller runs.
type Algorithm string

// The supported strategies. AlgStorm is hash-only with no rebalancing
// (the Storm key-grouping baseline); AlgIdeal is key-oblivious shuffle.
const (
	AlgMixed    Algorithm = "mixed"
	AlgMixedBF  Algorithm = "mixedbf"
	AlgMinTable Algorithm = "mintable"
	AlgMinMig   Algorithm = "minmig"
	AlgLLFD     Algorithm = "llfd"
	AlgSimple   Algorithm = "simple"
	AlgCompact  Algorithm = "compact"
	AlgReadj    Algorithm = "readj"
	AlgStorm    Algorithm = "storm"
	AlgPKG      Algorithm = "pkg"
	AlgIdeal    Algorithm = "ideal"
)

// PKGOverhead is the fraction of service capacity PKG's partial-result
// merging and acking consume (~12%), calibrated so Mixed's throughput
// advantage over PKG matches the ~10% the paper reports in Fig. 14(a).
const PKGOverhead = 1.125

// The paper's Tab. II defaults, applied to zero-valued parameters.
const (
	DefInstances  = 10
	DefWindow     = 1
	DefTheta      = 0.08
	DefTableMax   = 3000
	DefBeta       = 1.5
	DefCompactR   = 8
	DefReadjSigma = 0.1
	DefBudget     = 10000
)

// NewAssignment returns the paper's default partition function: an
// empty routing table over a consistent-hash ring of nd instances.
func NewAssignment(nd int) *route.Assignment {
	return route.NewAssignment(route.NewTable(), hashring.New(nd, 0))
}

// PlannerFor instantiates the planner for an algorithm name. AlgStorm,
// AlgPKG and AlgIdeal have no planner (they never migrate) and return
// nil. compactR and readjSigma parameterize AlgCompact and AlgReadj;
// zero values take the Tab. II defaults. PlannerFor panics on an
// unknown name.
func PlannerFor(alg Algorithm, compactR int64, readjSigma float64) balance.Planner {
	p, err := plannerFor(alg, compactR, readjSigma)
	if err != nil {
		panic(err)
	}
	return p
}

func plannerFor(alg Algorithm, compactR int64, readjSigma float64) (balance.Planner, error) {
	if compactR == 0 {
		compactR = DefCompactR
	}
	if readjSigma == 0 {
		readjSigma = DefReadjSigma
	}
	switch alg {
	case AlgMixed:
		return balance.Mixed{}, nil
	case AlgMixedBF:
		return balance.MixedBF{}, nil
	case AlgMinTable:
		return balance.MinTable{}, nil
	case AlgMinMig:
		return balance.MinMig{}, nil
	case AlgLLFD:
		return balance.LLFD{}, nil
	case AlgSimple:
		return balance.Simple{}, nil
	case AlgCompact:
		return compact.Planner{R: compactR}, nil
	case AlgReadj:
		return readj.Planner{Sigma: readjSigma}, nil
	case AlgStorm, AlgPKG, AlgIdeal:
		return nil, nil
	default:
		return nil, fmt.Errorf("topology: unknown algorithm %q", alg)
	}
}

// routerFor builds the stage input router matching an algorithm:
// load-aware two-choice for AlgPKG, round-robin shuffle for AlgIdeal,
// and the mixed hash/routing-table assignment for everything else.
func routerFor(alg Algorithm, nd int) engine.Router {
	switch alg {
	case AlgPKG:
		return engine.NewPKGRouter(nd)
	case AlgIdeal:
		return engine.NewShuffleRouter(nd)
	default:
		return engine.NewAssignmentRouter(NewAssignment(nd))
	}
}

// Builder accumulates a declaration, a Spec: topology-level options
// from New, then one Stage call per operator in pipeline order, then
// Build. The zero value is not usable; start with New.
type Builder struct {
	spec Spec
}

// Option is a topology-level construction option for New.
type Option func(*Spec)

// New starts a topology declaration. Engine-model parameters default to
// engine.DefaultConfig (budget 10000, max-pending factor 0.5,
// migration factor 0.5).
func New(opts ...Option) *Builder {
	b := &Builder{}
	for _, o := range opts {
		o(&b.spec)
	}
	return b
}

// Spout sets the per-tuple input source. A SpoutBatch given as well is
// preferred.
func Spout(s engine.Spout) Option {
	return func(sp *Spec) {
		if sp.SpoutB == nil && s != nil {
			sp.SpoutB = engine.BatchSpout(s)
		}
	}
}

// SpoutBatch sets a batch-capable input source, preferred over Spout on
// the emission hot path (the engine draws straight into its reusable
// scratch buffer).
func SpoutBatch(s engine.SpoutBatch) Option { return func(sp *Spec) { sp.SpoutB = s } }

// Budget sets the spout's per-interval tuple budget.
func Budget(n int64) Option { return func(s *Spec) { s.Budget = n } }

// Feeders sets the spout parallelism: how many goroutines emit each
// interval's tuples concurrently (engine.Config.Feeders).
func Feeders(n int) Option { return func(s *Spec) { s.Feeders = n } }

// MaxPending sets the backpressure threshold factor
// (engine.Config.MaxPendingFactor); 0 disables throttling.
func MaxPending(f float64) Option {
	return func(s *Spec) {
		if f == 0 {
			f = -1 // Spec.MaxPending's "off": its zero is the default
		}
		s.MaxPending = f
	}
}

// AdvanceEach installs a per-interval workload callback
// (engine.AdvanceWorkload): fn runs after every interval so generators
// can fluctuate or shift their distributions.
func AdvanceEach(fn func(interval int64)) Option { return func(s *Spec) { s.Advance = fn } }

// StageOption is a per-stage construction option for Builder.Stage.
type StageOption func(*StageSpec)

// Stage appends one operator stage to the topology, in pipeline order:
// the first Stage call consumes the spout, each later one consumes the
// previous stage's emissions. op is the per-instance operator factory
// (StageSpec.Factory).
func (b *Builder) Stage(name string, op func(id int) engine.Operator, opts ...StageOption) *Builder {
	st := StageSpec{Name: name, Factory: op}
	for _, o := range opts {
		o(&st)
	}
	b.spec.Stages = append(b.spec.Stages, st)
	return b
}

// Instances sets the stage's parallelism ND. Default 10.
func Instances(n int) StageOption { return func(s *StageSpec) { s.Instances = n } }

// Window sets the stage's state window w in intervals. Default 1.
func Window(w int) StageOption { return func(s *StageSpec) { s.Window = w } }

// WithAlgorithm selects the stage's partitioning scheme and — for the
// rebalancing strategies — its planner: the stage gets the matching
// router (assignment, PKG or shuffle) and, when the algorithm
// rebalances, its own controller. An AlgPKG stage additionally pays
// the paper's coordination costs (StageSpec.Model: the PKGOverhead
// capacity shave, and the merge-period latency floor on the target).
// Without this option the stage routes by plain assignment (hash +
// table) and no controller is created.
func WithAlgorithm(a Algorithm) StageOption { return func(s *StageSpec) { s.Algorithm = a } }

// WithPlanner installs an explicit rebalance planner for the stage's
// controller, overriding the algorithm-derived one.
func WithPlanner(p balance.Planner) StageOption { return func(s *StageSpec) { s.Planner = p } }

// Theta sets the stage controller's imbalance tolerance θmax.
// Default 0.08.
func Theta(x float64) StageOption { return func(s *StageSpec) { s.Theta = x } }

// TableMax sets the stage's routing-table bound Amax. Default 3000;
// negative means unbounded.
func TableMax(n int) StageOption { return func(s *StageSpec) { s.TableMax = n } }

// MinKeys delays the stage's rebalancing until its snapshot has seen
// this many keys (warm-up guard).
func MinKeys(n int) StageOption { return func(s *StageSpec) { s.MinKeys = n } }

// Capacity overrides the stage's per-task service capacity in cost
// units per interval (0 = saturation, Budget/Instances).
func Capacity(c int64) StageOption { return func(s *StageSpec) { s.Capacity = c } }

// Target marks this stage as the one whose metrics the engine records
// (the operator under study). Default: the first stage.
func Target() StageOption { return func(s *StageSpec) { s.Target = true } }

// HotKeySplit arms contention-aware hot-key splitting on this stage: a
// detector policy (controller.Splitter) watches the interval snapshots
// and splits at most maxKeys keys across replica sets whenever a
// single key's interval cost reaches threshold × the per-task service
// capacity, folding each key back once it cools. Split-key tuples fan
// out round-robin on the feed path; replicas hold commutative
// deltas that fold into the key's home before every harvest, so all
// observables stay bit-identical to an unsplit run. threshold ≤ 0
// defaults to 1 (split when one key alone saturates a task). Composes
// with a rebalance algorithm: split keys are pinned to their home while
// split, everything else rebalances normally. maxKeys is meant to be a
// handful (the in-tree topologies use 3 or 4): the feed path finds a
// tuple's split, and a task a split tuple's replica cell, by scanning
// the split keys, so every tuple costs O(maxKeys).
func HotKeySplit(maxKeys int, threshold float64) StageOption {
	return func(s *StageSpec) { s.SplitKeys, s.SplitRatio = max(maxKeys, 1), threshold }
}

// WithPolicy attaches an additional control.Policy to this stage's
// control loop, after the builder-created rebalance controller (if
// any): each interval the loop hands the stage's snapshot to every
// policy in order and applies the emitted commands — rebalance plans,
// scale-out, live scale-in — through the stage's single executor over
// protocol messages. This is how long-term policies
// (longterm.AutoScaler) layer on top of the short-term rebalancer.
func WithPolicy(p control.Policy) StageOption {
	return func(s *StageSpec) { s.Policies = append(s.Policies, p) }
}

// System is a built topology: the engine plus the per-stage
// controllers and control loops the builder created.
type System struct {
	Engine    *engine.Engine
	ctls      []*controller.Controller
	splitters []*controller.Splitter // per stage; nil unless HotKeySplit
	loops     []*control.Loop        // per stage; nil for stages without policies
	byName    map[string]int
}

// Build assembles the declaration (Spec.BuildLocal). It panics on an
// empty or inconsistent declaration with the error Spec.Resolve names.
func (b *Builder) Build() *System { return b.spec.BuildLocal() }

// Run executes n intervals.
func (s *System) Run(n int) { s.Engine.Run(n) }

// Stop tears down the engine goroutines and the per-stage control
// loops (policy state is safe to read after Stop returns).
func (s *System) Stop() {
	s.Engine.Stop()
	for _, l := range s.loops {
		if l != nil {
			l.Close()
		}
	}
}

// Loop returns stage si's control loop, or nil for stages without
// policies.
func (s *System) Loop(si int) *control.Loop { return s.loops[si] }

// Recorder exposes the target stage's per-interval metric series.
func (s *System) Recorder() *metrics.Recorder { return s.Engine.Recorder }

// Stages returns how many stages the topology has.
func (s *System) Stages() int { return len(s.Engine.Stages) }

// Stage returns stage si in pipeline order.
func (s *System) Stage(si int) *engine.Stage { return s.Engine.Stages[si] }

// StageNamed returns the stage declared under name, or nil.
func (s *System) StageNamed(name string) *engine.Stage {
	si, ok := s.byName[name]
	if !ok {
		return nil
	}
	return s.Engine.Stages[si]
}

// Controller returns stage si's builder-created controller, or nil for
// stages without one (no algorithm/planner, or a non-rebalancing
// baseline).
func (s *System) Controller(si int) *controller.Controller { return s.ctls[si] }

// ControllerNamed returns the controller of the stage declared under
// name, or nil.
func (s *System) ControllerNamed(name string) *controller.Controller {
	si, ok := s.byName[name]
	if !ok {
		return nil
	}
	return s.ctls[si]
}

// Splitter returns stage si's hot-key split policy, or nil for stages
// built without HotKeySplit.
func (s *System) Splitter(si int) *controller.Splitter { return s.splitters[si] }

// Rebalances sums applied plans across every controller-managed stage.
func (s *System) Rebalances() int {
	n := 0
	for _, c := range s.ctls {
		if c != nil {
			n += c.Rebalances()
		}
	}
	return n
}

// Dest evaluates stage si's live partition function for a key
// (assignment-routed stages only).
func (s *System) Dest(si int, k tuple.Key) (int, bool) {
	ar := s.Engine.Stages[si].AssignmentRouter()
	if ar == nil {
		return 0, false
	}
	return ar.Assignment().Dest(k), true
}

// Intervals returns def unless the REPRO_INTERVALS environment
// variable holds a smaller positive interval budget. The examples size
// their runs through it so CI can smoke every topology end to end with
// a 2-interval budget instead of a full demonstration run.
func Intervals(def int) int {
	v := os.Getenv("REPRO_INTERVALS")
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n >= def {
		return def
	}
	return n
}
