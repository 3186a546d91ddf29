package engine

import (
	"sync/atomic"

	"repro/internal/pkgpart"
	"repro/internal/route"
	"repro/internal/tuple"
)

// Router is a stage's partitioning scheme on its input edge, one of the
// schemes compared in §V: *AssignmentRouter, PKGRouter or
// *ShuffleRouter. A sender resolves a batch's destinations through its
// own Port (Stage.NewPort), which carries whatever the scheme keeps per
// sender.
type Router interface {
	// dests writes the destination of every tuple of ts into dst for
	// sender p and returns the split table the destinations are marked
	// against (nil: none is).
	dests(p *Port, ts []tuple.Tuple, dst []int) *route.SplitTable
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

// dests resolves through the immutable current assignment, so senders
// share it without a lock; a split tuple comes back marked (see
// route.Assignment.DestTuples).
func (r *AssignmentRouter) dests(_ *Port, ts []tuple.Tuple, dst []int) *route.SplitTable {
	a := r.cur.Load()
	a.DestTuples(ts, dst)
	return a.Splits()
}

// Assignment returns the active assignment.
func (r *AssignmentRouter) Assignment() *route.Assignment { return r.cur.Load() }

// Swap atomically installs a new assignment (step 7 of Fig. 5: F′
// reaches the stage's senders — the spout, upstream tasks, inbound data
// connections — when the next interval opens). Senders that load the
// pointer afterwards route under a; the stage only swaps while it is
// sealed, so none is mid-batch.
func (r *AssignmentRouter) Swap(a *route.Assignment) { r.cur.Store(a) }

// PKGRouter is the partial-key-grouping baseline over int(r)
// instances. As in the published algorithm every sender routes on its
// own load estimate: each Port holds its own pkgpart.Router, and
// senders never coordinate.
type PKGRouter int

// NewPKGRouter builds a PKG scheme over nd instances.
func NewPKGRouter(nd int) PKGRouter { return PKGRouter(nd) }

// dests routes ts on p's estimate, which p's first batch creates.
func (r PKGRouter) dests(p *Port, ts []tuple.Tuple, dst []int) *route.SplitTable {
	if p.pkg == nil {
		p.pkg = pkgpart.NewRouter(int(r))
	}
	p.pkg.DestTuples(ts, dst)
	return nil
}

// ShuffleRouter is the "Ideal" upper bound of Fig. 13: round-robin,
// key-oblivious (and therefore unusable for stateful operators — it
// exists purely as the theoretical throughput/latency limit).
type ShuffleRouter struct {
	nd   int
	next uint64
}

// NewShuffleRouter builds an nd-way round-robin router.
func NewShuffleRouter(nd int) *ShuffleRouter { return &ShuffleRouter{nd: nd} }

// dests claims the batch's len(ts) round-robin positions with one
// atomic add on the stage's shared position, so every sender's batch is
// a contiguous run and the per-destination totals are exact for any
// number of senders. The round-robin starts at instance 0: AddUint64
// returns the post-add value.
func (s *ShuffleRouter) dests(_ *Port, ts []tuple.Tuple, dst []int) *route.SplitTable {
	n := uint64(len(ts))
	d := int((atomic.AddUint64(&s.next, n) - n) % uint64(s.nd))
	for i := range dst {
		dst[i] = d
		if d++; d == s.nd {
			d = 0
		}
	}
	return nil
}
