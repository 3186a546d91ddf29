package engine

import (
	"sync/atomic"

	"repro/internal/pkgpart"
	"repro/internal/route"
	"repro/internal/tuple"
)

// Router picks the destination instance for each tuple on a stage's
// input edge. Implementations correspond to the partitioning schemes
// compared in §V.
type Router interface {
	Route(t tuple.Tuple) int
	Instances() int
}

// AssignmentRouter is the paper's mixed routing: an atomically swappable
// route.Assignment (hash + bounded table). With an empty table and no
// rebalancing it degenerates to the "Storm" key-grouping baseline.
type AssignmentRouter struct {
	cur atomic.Pointer[route.Assignment]
}

// NewAssignmentRouter starts from the given assignment.
func NewAssignmentRouter(a *route.Assignment) *AssignmentRouter {
	r := &AssignmentRouter{}
	r.cur.Store(a)
	return r
}

// Route implements Router.
func (r *AssignmentRouter) Route(t tuple.Tuple) int { return r.cur.Load().Dest(t.Key) }

// Instances implements Router.
func (r *AssignmentRouter) Instances() int { return r.cur.Load().Instances() }

// Assignment returns the active assignment.
func (r *AssignmentRouter) Assignment() *route.Assignment { return r.cur.Load() }

// Swap atomically installs a new assignment (step 7 of Fig. 5 — the
// Resume signal carries F′ to the upstream tasks). Feeders that load
// the pointer afterwards route under a; the stage only swaps while it
// is sealed, so none is mid-batch.
func (r *AssignmentRouter) Swap(a *route.Assignment) { r.cur.Store(a) }

// PKGRouter adapts the partial-key-grouping baseline.
type PKGRouter struct{ R *pkgpart.Router }

// Route implements Router.
func (p PKGRouter) Route(t tuple.Tuple) int { return p.R.Route(t) }

// Instances implements Router.
func (p PKGRouter) Instances() int { return p.R.Instances() }

// ShuffleRouter is the "Ideal" upper bound of Fig. 13: round-robin,
// key-oblivious (and therefore unusable for stateful operators — it
// exists purely as the theoretical throughput/latency limit).
type ShuffleRouter struct {
	nd   int
	next uint64
}

// NewShuffleRouter builds an nd-way round-robin router.
func NewShuffleRouter(nd int) *ShuffleRouter { return &ShuffleRouter{nd: nd} }

// Route implements Router. The round-robin starts at instance 0:
// AddUint64 returns the post-increment value, so the pre-increment
// counter is recovered by subtracting one — otherwise the first wrap
// would serve instance 0 one tuple short.
func (s *ShuffleRouter) Route(t tuple.Tuple) int {
	n := atomic.AddUint64(&s.next, 1) - 1
	return int(n % uint64(s.nd))
}

// Instances implements Router.
func (s *ShuffleRouter) Instances() int { return s.nd }
