package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/topology"
)

// Spec and StageSpec are the topology builder's own declaration: a
// cluster deploys the value BuildLocal runs in one process. Each worker
// builds its stage from the registered StageSpec.Op; the spout, Advance
// and every stage's Factory, Planner and Policies stay with the
// coordinator.
type (
	Spec      = topology.Spec
	StageSpec = topology.StageSpec
)

// RegisterOp is topology.RegisterOp. It stays for the repository
// benchmark, which registers its operators here, and goes with that
// benchmark's move to topology (ROADMAP item 1).
func RegisterOp(name string, f func(id int) engine.Operator) { topology.RegisterOp(name, f) }

// MustOp is topology.MustOp, kept for the repository benchmark like
// RegisterOp.
func MustOp(name string) func(id int) engine.Operator { return topology.MustOp(name) }

// The topology registry: both binaries (cmd/worker, cmd/coordinator)
// import the same registrations.
var (
	regMu      sync.RWMutex
	topologies = map[string]func() *Spec{}
)

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
	known := slices.Sorted(maps.Keys(topologies))
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: unknown topology %q (registered: %v)", name, known)
	}
	return f(), nil
}
