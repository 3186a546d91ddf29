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
// Stages stream to each other (stage s+1 consumes while stage s is
// still processing). Assignment-routed stages migrate live
// (generation-stamped routing, no feed pause; see
// engine.Stage.ApplyPlan). Every stage may carry its own control loop —
// the builder assembles the stage's policies (the algorithm-derived
// rebalance controller plus any WithPolicy additions, e.g.
// longterm.AutoScaler) into one control.Loop per managed stage, applying
// rebalance, scale-out and live scale-in commands over protocol
// messages on the in-process loopback.
package topology

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/balance"
	"repro/internal/compact"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/hashring"
	"repro/internal/metrics"
	"repro/internal/pkgpart"
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
// zero values take the Tab. II defaults.
func PlannerFor(alg Algorithm, compactR int64, readjSigma float64) balance.Planner {
	if compactR == 0 {
		compactR = DefCompactR
	}
	if readjSigma == 0 {
		readjSigma = DefReadjSigma
	}
	switch alg {
	case AlgMixed:
		return balance.Mixed{}
	case AlgMixedBF:
		return balance.MixedBF{}
	case AlgMinTable:
		return balance.MinTable{}
	case AlgMinMig:
		return balance.MinMig{}
	case AlgLLFD:
		return balance.LLFD{}
	case AlgSimple:
		return balance.Simple{}
	case AlgCompact:
		return compact.Planner{R: compactR}
	case AlgReadj:
		return readj.Planner{Sigma: readjSigma}
	case AlgStorm, AlgPKG, AlgIdeal:
		return nil
	default:
		panic(fmt.Sprintf("topology: unknown algorithm %q", alg))
	}
}

// RouterFor builds the stage input router matching an algorithm:
// load-aware two-choice for AlgPKG, round-robin shuffle for AlgIdeal,
// and the mixed hash/routing-table assignment for everything else.
func RouterFor(alg Algorithm, nd int) engine.Router {
	switch alg {
	case AlgPKG:
		return engine.PKGRouter{R: pkgpart.NewRouter(nd)}
	case AlgIdeal:
		return engine.NewShuffleRouter(nd)
	default:
		return engine.NewAssignmentRouter(NewAssignment(nd))
	}
}

// Builder accumulates a topology declaration: topology-level options
// from New, then one Stage call per operator in pipeline order, then
// Build. The zero value is not usable; start with New.
type Builder struct {
	spout   engine.Spout
	spoutB  engine.SpoutBatch
	ecfg    engine.Config
	advance func(interval int64)
	stages  []*stageSpec
}

// Option is a topology-level construction option for New.
type Option func(*Builder)

// New starts a topology declaration. Engine-model parameters default to
// engine.DefaultConfig (budget 10000, max-pending factor 0.5,
// migration factor 0.5).
func New(opts ...Option) *Builder {
	b := &Builder{ecfg: engine.DefaultConfig()}
	for _, o := range opts {
		o(b)
	}
	return b
}

// Spout sets the per-tuple input source.
func Spout(s engine.Spout) Option { return func(b *Builder) { b.spout = s } }

// SpoutBatch sets a batch-capable input source, preferred over Spout on
// the emission hot path (the engine draws straight into its reusable
// scratch buffer).
func SpoutBatch(s engine.SpoutBatch) Option { return func(b *Builder) { b.spoutB = s } }

// Budget sets the spout's per-interval tuple budget.
func Budget(n int64) Option { return func(b *Builder) { b.ecfg.Budget = n } }

// Feeders sets the spout parallelism: how many goroutines emit each
// interval's tuples concurrently (engine.Config.Feeders).
func Feeders(n int) Option { return func(b *Builder) { b.ecfg.Feeders = n } }

// MaxPending sets the backpressure threshold factor
// (engine.Config.MaxPendingFactor); 0 disables throttling.
func MaxPending(f float64) Option { return func(b *Builder) { b.ecfg.MaxPendingFactor = f } }

// MigrationFactor sets how much service capacity one unit of migrated
// state consumes in the following interval.
func MigrationFactor(f float64) Option { return func(b *Builder) { b.ecfg.MigrationFactor = f } }

// LatencyFloorMs sets an additive latency term for schemes with extra
// coordination. (Stages built with WithAlgorithm(AlgPKG) as the target
// get the paper's 10 ms merge-period floor automatically.)
func LatencyFloorMs(ms float64) Option { return func(b *Builder) { b.ecfg.LatencyFloorMs = ms } }

// AdvanceEach installs a per-interval workload callback
// (engine.AdvanceWorkload): fn runs after every interval so generators
// can fluctuate or shift their distributions.
func AdvanceEach(fn func(interval int64)) Option {
	return func(b *Builder) { b.advance = fn }
}

// stageSpec is one declared stage, defaults unresolved until Build.
type stageSpec struct {
	name       string
	op         func(id int) engine.Operator
	instances  int
	window     int
	alg        Algorithm
	router     engine.Router
	routerFn   func(nd int) engine.Router
	planner    balance.Planner
	plannerOn  bool // WithPlanner given (overrides the alg-derived one)
	theta      float64
	tableMax   int
	beta       float64
	compactR   int64
	sigma      float64
	minKeys    int
	planEvery  time.Duration
	capacity   int64
	target     bool
	splitOn    bool
	splitMax   int
	splitRatio float64
	policies   []control.Policy
}

// StageOption is a per-stage construction option for Builder.Stage.
type StageOption func(*stageSpec)

// Stage appends one operator stage to the topology, in pipeline order:
// the first Stage call consumes the spout, each later one consumes the
// previous stage's emissions. op is the per-instance operator factory.
func (b *Builder) Stage(name string, op func(id int) engine.Operator, opts ...StageOption) *Builder {
	s := &stageSpec{name: name, op: op}
	for _, o := range opts {
		o(s)
	}
	b.stages = append(b.stages, s)
	return b
}

// Instances sets the stage's parallelism ND. Default 10.
func Instances(n int) StageOption { return func(s *stageSpec) { s.instances = n } }

// Window sets the stage's state window w in intervals. Default 1.
func Window(w int) StageOption { return func(s *stageSpec) { s.window = w } }

// WithAlgorithm selects the stage's partitioning scheme and — for the
// rebalancing strategies — its planner: the stage gets the matching
// router (assignment, PKG or shuffle) and, when the algorithm
// rebalances, its own controller. An AlgPKG target stage additionally
// pays the paper's coordination costs (merge-period latency floor,
// PKGOverhead capacity shave). Without this option the stage routes by
// plain assignment (hash + table) and no controller is created.
func WithAlgorithm(a Algorithm) StageOption { return func(s *stageSpec) { s.alg = a } }

// WithRouter installs an explicit input router, overriding the
// algorithm-derived one. Unlike WithAlgorithm(AlgPKG), a raw PKG
// router carries no capacity or latency model adjustments.
func WithRouter(r engine.Router) StageOption { return func(s *stageSpec) { s.router = r } }

// WithRouterFactory installs a router constructor resolved at Build
// time with the stage's resolved instance count — unlike WithRouter,
// the caller does not repeat the Instances value (or the DefInstances
// default) when constructing the router by hand. An explicit
// WithRouter wins if both are given.
func WithRouterFactory(f func(nd int) engine.Router) StageOption {
	return func(s *stageSpec) { s.routerFn = f }
}

// PKGRouting selects split-key partial routing (load-aware
// two-choice, pkgpart) for this stage, sized to the stage's resolved
// instance count. It is the builder-native form of hand-wiring
// engine.PKGRouter via WithRouter, and — like WithRouter — carries no
// capacity or latency model adjustments; use WithAlgorithm(AlgPKG)
// on the target stage for the paper-calibrated PKG cost model.
func PKGRouting() StageOption {
	return WithRouterFactory(func(nd int) engine.Router {
		return engine.PKGRouter{R: pkgpart.NewRouter(nd)}
	})
}

// WithPlanner installs an explicit rebalance planner for the stage's
// controller, overriding the algorithm-derived one. Pass nil to
// suppress the controller entirely (e.g. an assignment-routed stage
// that must never migrate).
func WithPlanner(p balance.Planner) StageOption {
	return func(s *stageSpec) { s.planner, s.plannerOn = p, true }
}

// Theta sets the stage controller's imbalance tolerance θmax.
// Default 0.08.
func Theta(x float64) StageOption { return func(s *stageSpec) { s.theta = x } }

// TableMax sets the stage's routing-table bound Amax. Default 3000;
// negative means unbounded.
func TableMax(n int) StageOption { return func(s *stageSpec) { s.tableMax = n } }

// Beta sets the γ exponent of the migration-priority index.
// Default 1.5.
func Beta(x float64) StageOption { return func(s *stageSpec) { s.beta = x } }

// CompactR sets the discretization degree for AlgCompact. Default 8.
func CompactR(r int64) StageOption { return func(s *stageSpec) { s.compactR = r } }

// ReadjSigma sets Readj's hot-key threshold. Default 0.1.
func ReadjSigma(x float64) StageOption { return func(s *stageSpec) { s.sigma = x } }

// MinKeys delays the stage's rebalancing until its snapshot has seen
// this many keys (warm-up guard).
func MinKeys(n int) StageOption { return func(s *stageSpec) { s.minKeys = n } }

// PlanInterval models plan-generation latency for the stage's
// controller: plans slower than this wall-clock duration per logical
// interval apply late (controller deferral). Zero disables the
// staleness model.
func PlanInterval(d time.Duration) StageOption { return func(s *stageSpec) { s.planEvery = d } }

// Capacity overrides the stage's per-task service capacity in cost
// units per interval (0 = saturation, Budget/Instances).
func Capacity(c int64) StageOption { return func(s *stageSpec) { s.capacity = c } }

// Target marks this stage as the one whose metrics the engine records
// (the operator under study). Default: the first stage.
func Target() StageOption { return func(s *stageSpec) { s.target = true } }

// HotKeySplit arms contention-aware hot-key splitting on this stage: a
// detector policy (controller.Splitter) watches the interval snapshots
// and splits at most maxKeys keys across replica sets whenever a
// single key's interval cost reaches threshold × the per-task service
// capacity, folding each key back once it cools. Split-key tuples fan
// out round-robin on the wait-free feed path; replicas hold commutative
// deltas that fold into the key's home before every harvest, so all
// observables stay bit-identical to an unsplit run. threshold ≤ 0
// defaults to 1 (split when one key alone saturates a task). Composes
// with a rebalance algorithm: split keys are pinned to their home while
// split, everything else rebalances normally. maxKeys is meant to be a
// handful (the in-tree topologies use 3 or 4): the feed path finds a
// tuple's split, and a task a split tuple's replica cell, by scanning
// the split keys, so every tuple costs O(maxKeys).
func HotKeySplit(maxKeys int, threshold float64) StageOption {
	return func(s *stageSpec) {
		s.splitOn = true
		s.splitMax = maxKeys
		s.splitRatio = threshold
	}
}

// WithPolicy attaches an additional control.Policy to this stage's
// control loop, after the builder-created rebalance controller (if
// any): each interval the loop hands the stage's snapshot to every
// policy in order and applies the emitted commands — rebalance plans,
// scale-out, live scale-in — through the stage's single executor over
// protocol messages. This is how long-term policies
// (longterm.AutoScaler) layer on top of the short-term rebalancer.
func WithPolicy(p control.Policy) StageOption {
	return func(s *stageSpec) { s.policies = append(s.policies, p) }
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

// Build resolves defaults and assembles the engine, stages and
// controllers. Build panics on an empty or inconsistent declaration —
// topology shape is a programming error, not an input error.
func (b *Builder) Build() *System {
	if len(b.stages) == 0 {
		panic("topology: Build with no stages")
	}
	if b.ecfg.Budget == 0 {
		b.ecfg.Budget = DefBudget
	}
	// Validate the declaration and resolve every panicking lookup
	// before constructing anything: engine.NewStage spawns task
	// goroutines, and a panic after that (duplicate name, unknown
	// algorithm) would leak them past a recovering caller.
	names := make(map[string]int, len(b.stages))
	target := -1
	for si, s := range b.stages {
		if _, dup := names[s.name]; dup {
			panic(fmt.Sprintf("topology: duplicate stage name %q", s.name))
		}
		names[s.name] = si
		if s.target {
			if target >= 0 {
				panic(fmt.Sprintf("topology: stages %q and %q both marked Target", b.stages[target].name, s.name))
			}
			target = si
		}
		if s.instances == 0 {
			s.instances = DefInstances
		}
		if s.window == 0 {
			s.window = DefWindow
		}
		if s.theta == 0 {
			s.theta = DefTheta
		}
		if s.tableMax == 0 {
			s.tableMax = DefTableMax
		}
		if s.beta == 0 {
			s.beta = DefBeta
		}
		if !s.plannerOn && s.alg != "" {
			// PlannerFor panics on an unknown algorithm — here, while
			// nothing has been built yet.
			s.planner, s.plannerOn = PlannerFor(s.alg, s.compactR, s.sigma), true
		}
	}
	if target < 0 {
		target = 0
	}

	ecfg := b.ecfg
	if b.stages[target].alg == AlgPKG {
		// PKG's split keys require a downstream merge of partial results
		// every period p (the paper settled on p = 10 ms); the latency
		// floor models p/2 + ack waiting.
		ecfg.LatencyFloorMs = 10
	}

	stages := make([]*engine.Stage, len(b.stages))
	for si, s := range b.stages {
		r := s.router
		if r == nil && s.routerFn != nil {
			r = s.routerFn(s.instances)
		}
		if r == nil {
			r = RouterFor(s.alg, s.instances)
		}
		stages[si] = engine.NewStage(s.name, s.instances, s.op, s.window, r)
	}

	e := engine.New(b.spout, ecfg, stages...)
	if b.spoutB != nil {
		e.SpoutB = b.spoutB
	}
	e.Target = target
	e.AdvanceWorkload = b.advance

	sys := &System{
		Engine:    e,
		ctls:      make([]*controller.Controller, len(b.stages)),
		splitters: make([]*controller.Splitter, len(b.stages)),
		loops:     make([]*control.Loop, len(b.stages)),
		byName:    names,
	}
	for si, s := range b.stages {
		if c := s.capacity; c != 0 {
			e.SetStageCapacity(si, c)
		}
		if s.alg == AlgPKG {
			// PKGOverhead shaves the equivalent service capacity (§V:
			// merging "leads to additional response time increase and
			// overall processing throughput reduction").
			c := s.capacity
			if c == 0 {
				c = ecfg.Budget / int64(s.instances)
			}
			e.SetStageCapacity(si, int64(float64(c)/PKGOverhead))
		}

		// The stage's control loop: the builder-created rebalance
		// controller (when the algorithm has a planner) followed by any
		// WithPolicy additions, all speaking commands through one
		// per-stage executor over protocol messages.
		var policies []control.Policy
		if p := s.planner; p != nil {
			tm := s.tableMax
			if tm < 0 {
				tm = 0 // balance.Config treats ≤0 as unbounded
			}
			ctl := controller.New(p, balance.Config{ThetaMax: s.theta, TableMax: tm, Beta: s.beta})
			ctl.MinKeys = s.minKeys
			ctl.IntervalDuration = s.planEvery
			policies = append(policies, ctl)
			sys.ctls[si] = ctl
		}
		if s.splitOn {
			sp := controller.NewSplitter(s.splitMax, s.splitRatio)
			policies = append(policies, sp)
			sys.splitters[si] = sp
		}
		policies = append(policies, s.policies...)
		if len(policies) > 0 {
			loop := control.NewLoop(e, si, policies)
			sys.loops[si] = loop
			e.AddSnapshotHook(si, loop.Hook())
		}
	}
	return sys
}

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
