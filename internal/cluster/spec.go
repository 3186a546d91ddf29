package cluster

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/topology"
)

// StageSpec declares one pipeline stage of a distributed topology —
// the subset of the topology builder's vocabulary the cluster runtime
// supports, in serializable form. The operator is named, not held:
// worker processes resolve it from the shared registry (RegisterOp),
// so the same binary-side factory builds identical instances on
// whichever host the stage lands on.
//
// The subset: every Algorithm except topology.AlgPKG, whose capacity
// shave and latency floor the cluster does not apply (NewCoordinator
// refuses it); the builder's default Beta, CompactR and ReadjSigma and
// no PlanInterval; no WithRouter, WithRouterFactory, WithPlanner or
// HotKeySplit (a policy in Policies may still split); and the engine's
// default model (engine.DefaultConfig: its max-pending and migration
// factors, no latency floor, one feeder).
type StageSpec struct {
	Name      string
	Op        string
	Instances int
	Window    int
	Algorithm topology.Algorithm
	Capacity  int64
	// Controller parameters (coordinator-side only: policies never
	// leave the coordinator).
	Theta    float64
	MinKeys  int
	TableMax int
	Target   bool
	// Policies are additional coordinator-side control policies, run
	// after the algorithm-derived rebalance controller each round —
	// the Spec-level form of topology.WithPolicy (long-term scalers,
	// scripted elasticity in tests). Never serialized: policies live
	// with the coordinator only.
	Policies []control.Policy
}

// Spec declares a distributed topology: the stages in pipeline order
// plus the spout, which lives with the coordinator (emission is the
// coordinator's job, exactly as the driver's in a single-process run).
type Spec struct {
	Name   string
	Budget int64
	// SpoutB draws the input stream; Advance, when set, shifts the
	// generator after each interval (engine.AdvanceWorkload).
	SpoutB  engine.SpoutBatch
	Advance func(interval int64)
	Stages  []StageSpec
}

// resolve normalizes the spec in place to the same defaults the
// topology builder applies, so the coordinator's throttle, the workers'
// stages and BuildLocal's reference system all derive identical
// numbers. Returns the target stage index.
func (s *Spec) resolve() int {
	if s.Budget == 0 {
		s.Budget = topology.DefBudget
	}
	target := -1
	for i := range s.Stages {
		st := &s.Stages[i]
		if st.Instances == 0 {
			st.Instances = topology.DefInstances
		}
		if st.Window == 0 {
			st.Window = topology.DefWindow
		}
		if st.Theta == 0 {
			st.Theta = topology.DefTheta
		}
		if st.TableMax == 0 {
			st.TableMax = topology.DefTableMax
		}
		if st.Capacity == 0 {
			st.Capacity = s.Budget / int64(st.Instances)
			if st.Capacity < 1 {
				st.Capacity = 1
			}
		}
		if st.Target && target < 0 {
			target = i
		}
	}
	if target < 0 {
		target = 0
	}
	return target
}

// Policies builds stage si's coordinator-side control policies: the
// algorithm-derived rebalance controller, when the algorithm has a
// planner. The returned controller (nil for planner-less stages) is
// also handed back so callers can read Rebalances() after the run.
func (s *Spec) Policies(si int) ([]control.Policy, *controller.Controller) {
	st := &s.Stages[si]
	var policies []control.Policy
	var ctl *controller.Controller
	if st.Algorithm != "" {
		if p := topology.PlannerFor(st.Algorithm, 0, 0); p != nil {
			tm := st.TableMax
			if tm < 0 {
				tm = 0 // balance.Config treats ≤0 as unbounded
			}
			ctl = controller.New(p, balance.Config{ThetaMax: st.Theta, TableMax: tm, Beta: topology.DefBeta})
			ctl.MinKeys = st.MinKeys
			policies = append(policies, ctl)
		}
	}
	policies = append(policies, st.Policies...)
	return policies, ctl
}

// BuildLocal assembles the spec as a single-process topology.System —
// the pinned reference the distributed run must match bit for bit.
// The spec is resolved first, so both paths see identical defaults.
func (s *Spec) BuildLocal() *topology.System {
	s.resolve()
	b := topology.New(
		topology.SpoutBatch(s.SpoutB),
		topology.Budget(s.Budget),
		topology.AdvanceEach(s.Advance),
	)
	for _, st := range s.Stages {
		opts := []topology.StageOption{
			topology.Instances(st.Instances),
			topology.Window(st.Window),
			topology.Capacity(st.Capacity),
			topology.Theta(st.Theta),
			topology.MinKeys(st.MinKeys),
			topology.TableMax(st.TableMax),
		}
		if st.Algorithm != "" {
			opts = append(opts, topology.WithAlgorithm(st.Algorithm))
		}
		if st.Target {
			opts = append(opts, topology.Target())
		}
		for _, p := range st.Policies {
			opts = append(opts, topology.WithPolicy(p))
		}
		b = b.Stage(st.Name, MustOp(st.Op), opts...)
	}
	return b.Build()
}

// The operator and topology registries: both binaries (cmd/worker,
// cmd/coordinator) import the same registrations, so a name resolves
// to the identical factory on every host.
var (
	regMu      sync.RWMutex
	ops        = map[string]func(id int) engine.Operator{}
	topologies = map[string]func() *Spec{}
)

// RegisterOp registers an operator factory under a globally unique
// name. Typically called from init in the package declaring the
// topology; re-registering a name panics.
func RegisterOp(name string, f func(id int) engine.Operator) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := ops[name]; dup {
		panic(fmt.Sprintf("cluster: operator %q registered twice", name))
	}
	ops[name] = f
}

// MustOp resolves a registered operator factory, panicking on an
// unknown name (a misdeclared topology is a programming error).
func MustOp(name string) func(id int) engine.Operator {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := ops[name]
	if !ok {
		panic(fmt.Sprintf("cluster: unknown operator %q", name))
	}
	return f
}

// RegisterTopology registers a named topology constructor. The
// constructor runs once per lookup and must return a fresh Spec —
// generator state must not leak between runs.
func RegisterTopology(name string, f func() *Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := topologies[name]; dup {
		panic(fmt.Sprintf("cluster: topology %q registered twice", name))
	}
	topologies[name] = f
}

// LookupTopology constructs a fresh Spec for a registered topology.
func LookupTopology(name string) (*Spec, error) {
	regMu.RLock()
	f, ok := topologies[name]
	regMu.RUnlock()
	if !ok {
		var known []string
		regMu.RLock()
		for n := range topologies {
			known = append(known, n)
		}
		regMu.RUnlock()
		sort.Strings(known)
		return nil, fmt.Errorf("cluster: unknown topology %q (registered: %v)", name, known)
	}
	return f(), nil
}
