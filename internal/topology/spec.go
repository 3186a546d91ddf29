package topology

import (
	"fmt"
	"sync"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/protocol"
)

// Spec declares a topology in plain data: the spout's budget and model,
// then the stages in pipeline order. It is what the Builder fills in,
// and what a cluster coordinator deploys over sockets
// (cluster.NewCoordinator). BuildLocal assembles it in this process.
// Both paths resolve it with Resolve, build each stage with
// StageSpec.NewStage and StageSpec.Model, and assemble each stage's
// control policies with StageSpec.BuildPolicies, so they run the same
// system.
//
// Zero values take the defaults: Tab. II for the stages,
// engine.DefaultConfig for the model. The closures (SpoutB, Advance,
// and each stage's Factory, Planner and Policies) stay in the process
// that declared them. A cluster draws the input and plans on its
// coordinator, and its workers build operators from the registered Op.
type Spec struct {
	Name string
	// Budget is the spout's per-interval tuple budget. Default 10000.
	Budget int64
	// MaxPending is the backpressure threshold factor
	// (engine.Config.MaxPendingFactor). Zero takes the default 0.5; a
	// negative factor turns throttling off.
	MaxPending float64
	// SpoutB draws the input stream. Advance, when set, shifts the
	// generator after each interval (engine.Engine.AdvanceWorkload).
	SpoutB  engine.SpoutBatch
	Advance func(interval int64)
	Stages  []StageSpec
}

// StageSpec declares one stage. The operator is Op, a name registered
// with RegisterOp, which is what a cluster worker builds the stage
// from; Factory, when set, overrides it in process and is never
// shipped.
type StageSpec struct {
	Name    string
	Op      string
	Factory func(id int) engine.Operator
	// Instances is the parallelism ND (default 10), Window the state
	// window in intervals (default 1).
	Instances int
	Window    int
	// Algorithm selects the stage's router and, when the algorithm
	// rebalances, its planner (see WithAlgorithm).
	Algorithm Algorithm
	// Capacity is the per-task service capacity in cost units per
	// interval. Zero is saturation, Budget/Instances. An AlgPKG stage
	// runs at Capacity/PKGOverhead.
	Capacity int64
	// The controller's parameters: θmax (default 0.08), the routing
	// table bound Amax (default 3000, negative for unbounded) and the
	// warm-up guard.
	Theta    float64
	TableMax int
	MinKeys  int
	// Target marks the stage whose metrics are recorded. Default: the
	// first stage.
	Target bool
	// SplitKeys > 0 arms hot-key splitting of at most that many keys at
	// threshold SplitRatio (see HotKeySplit).
	SplitKeys  int
	SplitRatio float64
	// Planner, when set, replaces the algorithm's planner. Policies run
	// after the controller and the splitter (see WithPolicy). Both stay
	// with the process that plans.
	Planner  balance.Planner
	Policies []control.Policy
}

// Resolve validates the declaration and returns a copy with every
// default applied and exactly one stage marked Target, plus that
// stage's index. remote is set for a declaration deployed on a cluster,
// which builds every stage from its Op on a worker. The error names the
// offending stage.
func (s *Spec) Resolve(remote bool) (*Spec, int, error) {
	if len(s.Stages) == 0 {
		return nil, 0, fmt.Errorf("topology: no stages declared")
	}
	r := *s
	r.Stages = append([]StageSpec(nil), s.Stages...)
	if r.Budget == 0 {
		r.Budget = DefBudget
	}
	if r.MaxPending == 0 {
		r.MaxPending = engine.DefaultConfig().MaxPendingFactor
	}
	names := make(map[string]bool, len(r.Stages))
	target := -1
	for si := range r.Stages {
		st := &r.Stages[si]
		if names[st.Name] {
			return nil, 0, fmt.Errorf("topology: duplicate stage name %q", st.Name)
		}
		names[st.Name] = true
		if st.Target {
			if target >= 0 {
				return nil, 0, fmt.Errorf("topology: stages %q and %q both marked Target", r.Stages[target].Name, st.Name)
			}
			target = si
		}
		if st.Algorithm != "" {
			if _, err := plannerFor(st.Algorithm, 0, 0); err != nil {
				return nil, 0, fmt.Errorf("topology: stage %q: %w", st.Name, err)
			}
		}
		if remote && st.Op == "" && st.Factory != nil {
			return nil, 0, fmt.Errorf("topology: stage %q has only an in-process operator factory; a cluster builds it from a registered Op", st.Name)
		}
		if st.Factory == nil || remote {
			if _, err := lookupOp(st.Op); err != nil {
				return nil, 0, fmt.Errorf("topology: stage %q: %w", st.Name, err)
			}
		}
		if st.Instances == 0 {
			st.Instances = DefInstances
		}
		if st.Window == 0 {
			st.Window = DefWindow
		}
		if st.Theta == 0 {
			st.Theta = DefTheta
		}
		if st.TableMax == 0 {
			st.TableMax = DefTableMax
		}
		if err := st.checkShape(); err != nil {
			return nil, 0, err
		}
		if st.Capacity == 0 {
			st.Capacity = max(r.Budget/int64(st.Instances), 1)
		}
	}
	if target < 0 {
		target = 0
		r.Stages[0].Target = true
	}
	return &r, target, nil
}

// checkShape bounds what a resolved stage spawns: Resolve checks a
// declaration with it, and NewStage a StageAssign from the wire.
func (st *StageSpec) checkShape() error {
	if st.Instances < 1 || st.Instances > protocol.MaxTasks {
		return fmt.Errorf("topology: stage %q: %d instances (1 to %d)", st.Name, st.Instances, protocol.MaxTasks)
	}
	if st.Window < 1 {
		return fmt.Errorf("topology: stage %q: a window of %d intervals (at least 1)", st.Name, st.Window)
	}
	return nil
}

// NewStage builds the resolved stage: its operators (Factory, else the
// registered Op) behind the router its Algorithm selects. The error
// names an unregistered Op or a shape checkShape refuses.
func (st *StageSpec) NewStage() (*engine.Stage, error) {
	if err := st.checkShape(); err != nil {
		return nil, err
	}
	op := st.Factory
	if op == nil {
		var err error
		if op, err = lookupOp(st.Op); err != nil {
			return nil, fmt.Errorf("topology: stage %q: %w", st.Name, err)
		}
	}
	return engine.NewStage(st.Name, st.Instances, op, st.Window, routerFor(st.Algorithm, st.Instances)), nil
}

// Model returns the queueing-model constants the resolved stage runs
// under. An AlgPKG stage pays the paper's coordination costs: merging
// its partial results shaves PKGOverhead off its capacity (§V: it
// "leads to additional response time increase and overall processing
// throughput reduction"), and as the target it carries the merge
// period's latency floor (p = 10 ms; the floor models p/2 plus ack
// waiting).
func (st *StageSpec) Model() engine.ModelParams {
	m := engine.ModelParams{Capacity: st.Capacity, MigrationFactor: engine.DefaultConfig().MigrationFactor}
	if st.Algorithm == AlgPKG {
		m.Capacity = max(int64(float64(st.Capacity)/PKGOverhead), 1)
		if st.Target {
			m.LatencyFloorMs = 10
		}
	}
	return m
}

// BuildPolicies assembles the resolved stage's control policies in the
// order its loop runs them: the rebalance controller (Planner, else the
// Algorithm's planner; none for a stage that never migrates), the
// hot-key splitter when SplitKeys > 0, then Policies. The controller
// and the splitter are also returned, nil when absent, so a caller can
// read them after the run.
func (st *StageSpec) BuildPolicies() ([]control.Policy, *controller.Controller, *controller.Splitter) {
	var policies []control.Policy
	var ctl *controller.Controller
	var sp *controller.Splitter
	p := st.Planner
	if p == nil && st.Algorithm != "" {
		p = PlannerFor(st.Algorithm, 0, 0)
	}
	if p != nil {
		ctl = controller.New(p, balance.Config{ThetaMax: st.Theta, TableMax: max(st.TableMax, 0), Beta: DefBeta})
		ctl.MinKeys = st.MinKeys
		policies = append(policies, ctl)
	}
	if st.SplitKeys > 0 {
		sp = controller.NewSplitter(st.SplitKeys, st.SplitRatio)
		policies = append(policies, sp)
	}
	return append(policies, st.Policies...), ctl, sp
}

// BuildLocal assembles the declaration in this process: the engine,
// its stages, and one control loop per stage with policies. It panics
// with Resolve's error on an invalid declaration: topology shape is a
// programming error, not an input error. Nothing is constructed before
// the declaration validates, since engine.NewStage spawns task
// goroutines a panic would leak.
func (s *Spec) BuildLocal() *System {
	r, target, err := s.Resolve(false)
	if err != nil {
		panic(err)
	}
	stages := make([]*engine.Stage, len(r.Stages))
	for si := range r.Stages {
		if stages[si], err = r.Stages[si].NewStage(); err != nil {
			panic(err) // unreachable: Resolve looked the operator up
		}
	}
	ecfg := engine.DefaultConfig()
	ecfg.Budget = r.Budget
	ecfg.MaxPendingFactor = r.MaxPending
	ecfg.LatencyFloorMs = r.Stages[target].Model().LatencyFloorMs
	e := engine.NewBatch(r.SpoutB, ecfg, stages...)
	e.Target = target
	e.AdvanceWorkload = r.Advance

	sys := &System{
		Engine:    e,
		ctls:      make([]*controller.Controller, len(stages)),
		splitters: make([]*controller.Splitter, len(stages)),
		loops:     make([]*control.Loop, len(stages)),
		byName:    make(map[string]int, len(stages)),
	}
	for si := range r.Stages {
		st := &r.Stages[si]
		sys.byName[st.Name] = si
		e.SetStageCapacity(si, st.Model().Capacity)
		var policies []control.Policy
		policies, sys.ctls[si], sys.splitters[si] = st.BuildPolicies()
		if len(policies) > 0 {
			sys.loops[si] = control.NewLoop(e, si, policies)
			e.AddSnapshotHook(si, sys.loops[si].Hook())
		}
	}
	return sys
}

// The operator registry: every binary that builds stages by name
// (cmd/worker, cmd/coordinator) imports the same registrations, so a
// name resolves to the identical factory on every host.
var (
	registryMu sync.RWMutex
	registry   = map[string]func(id int) engine.Operator{}
)

// RegisterOp registers an operator factory under a globally unique
// name, typically from init in the package declaring the topology.
// Re-registering a name panics.
func RegisterOp(name string, f func(id int) engine.Operator) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("topology: operator %q registered twice", name))
	}
	registry[name] = f
}

// MustOp resolves a registered operator factory, panicking on an
// unknown name.
func MustOp(name string) func(id int) engine.Operator {
	f, err := lookupOp(name)
	if err != nil {
		panic(err)
	}
	return f
}

func lookupOp(name string) (func(id int) engine.Operator, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown operator %q", name)
	}
	return f, nil
}
