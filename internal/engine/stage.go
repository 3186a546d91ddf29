package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/balance"
	"repro/internal/hashring"
	"repro/internal/pkgpart"
	"repro/internal/route"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Stage is one logical operator: ND task instances behind a Router.
// Senders push tuples in through their Ports while the interval is open;
// task goroutines process them concurrently; barriers synchronize the
// interval close. Actuations — plans, resizes, split sets — run only on
// a closed stage, on the goroutine that drives its intervals.
type Stage struct {
	Name   string
	tasks  []*task
	router Router
	window int
	opFn   func(id int) Operator // factory, kept for scale-out

	// ar is the router as an *AssignmentRouter, nil for any other scheme
	// (PKG, shuffle): resolved once at construction, it says whether the
	// stage can migrate.
	ar *AssignmentRouter
	// port is the stage's own sender handle, behind FeedBatch.
	port *Port

	// open is true between StartInterval and CloseInterval, while
	// feeders may be running: every actuation (plan, resize, split set)
	// refuses an open stage, so state only moves between intervals.
	open bool
	// splitPinned counts rebalance-plan moves refused because their key
	// was split at apply time (see ApplyPlan's guard).
	splitPinned int64

	// Per-interval arrival accounting (cost units / tuples per task),
	// reset at EndInterval; feeds the performance model.
	arrivedCost   []int64
	arrivedTuples []int64

	// Backlog is the queued-but-unprocessed cost carried across
	// intervals by the performance model; MigPenalty is capacity
	// consumed by state transfer in the next interval. backlogT is the
	// same queue counted in tuples. ScaleOut and ScaleIn reshape all
	// three with the task slice.
	Backlog    []int64
	MigPenalty []int64
	backlogT   []int64

	// down is the emission sink (nil on a last stage nobody listens
	// to): the next stage in process, or a cluster data connection to
	// its remote host. observe is whether the tasks feed their trackers
	// (see setObserve). Both are propagated to tasks created later by
	// ScaleOut. curTick is the current interval index.
	down    BatchSink
	observe bool
	curTick int64

	// merged holds the merged runs of the last two closes; EndInterval
	// alternates between them, so a snapshot's keys stay intact until
	// the close after next.
	merged [2][]stats.KeyStat
	closes int

	// harvest is the statistics harvest CloseInterval queued behind its
	// close, collected by the next EndInterval; nil when none is pending.
	harvest *harvest

	// stateWire routes every key migration through the state codec:
	// extracted windows are serialized, and the *decoded* copy is what
	// the destination injects — the cross-process migration path, also
	// selectable in process so its equivalence with the in-memory
	// reference stays pinned by test.
	stateWire bool

	stopped bool
}

// NewStage builds a stage with nd instances running op(id), a state
// window of w intervals, and the given router. The stage starts sealed
// (StartInterval opens it) and observing per-key statistics; an Engine
// turns observation off on a stage no snapshot hook reads.
func NewStage(name string, nd int, op func(id int) Operator, w int, router Router) *Stage {
	s := &Stage{
		Name:          name,
		router:        router,
		window:        w,
		opFn:          op,
		observe:       true,
		arrivedCost:   make([]int64, nd),
		arrivedTuples: make([]int64, nd),
		Backlog:       make([]int64, nd),
		MigPenalty:    make([]int64, nd),
		backlogT:      make([]int64, nd),
	}
	s.ar, _ = router.(*AssignmentRouter)
	s.port = s.NewPort()
	for i := 0; i < nd; i++ {
		s.tasks = append(s.tasks, newTask(i, op(i), w, 0, s.observe))
	}
	return s
}

// Instances returns ND.
func (s *Stage) Instances() int { return len(s.tasks) }

// AssignmentRouter returns the router as an *AssignmentRouter, or nil
// when the stage uses a different scheme (PKG, shuffle).
func (s *Stage) AssignmentRouter() *AssignmentRouter { return s.ar }

// Port is one sender's handle on a stage: its partition scratch and, on
// a PKG stage, its own load estimate. Every sender holds its own — the
// spout's emitter (the stage's own, behind Stage.FeedBatch), each
// upstream task, each inbound cluster data connection — so senders share nothing but the stage's arrival
// counters and, on a shuffle stage, its round-robin position. A Port
// serves one goroutine at a time.
type Port struct {
	s      *Stage
	pkg    *pkgpart.Router // the sender's PKG load estimate (PKGRouter.dests)
	dst    []int
	bounds []int
	off    []int
	cost   []int64
	claim  []uint64 // per split key: its tuples in the batch, then its next round-robin position
	pos    []int32  // the batch's split tuples, by index
}

// NewPort returns a new sender's handle on the stage.
func (s *Stage) NewPort() *Port { return &Port{s: s} }

// senderOf returns a new sender's handle on sink: its own Port when sink
// is a stage, else sink itself (a cluster BatchConn serializes its
// callers).
func senderOf(sink BatchSink) BatchSink {
	if next, ok := sink.(*Stage); ok {
		return next.NewPort()
	}
	return sink
}

// FeedBatch routes a batch through the stage's own Port: the handle of
// its single spout-side sender. Every other sender holds its own Port.
func (s *Stage) FeedBatch(ts []tuple.Tuple) { s.port.FeedBatch(ts) }

// FeedBatch routes a whole batch of tuples into the stage: destinations
// are resolved for the whole batch by the stage's Router, tuples are
// partitioned into per-destination slices, and each task receives at
// most one channel message — amortizing the routing indirection and the
// channel operations across hundreds of tuples. Tuples are copied out of
// ts, so the caller may reuse the slice immediately. Ports of one stage
// may feed concurrently: routing takes no lock and arrivals are counted
// atomically. A split key's tuple is sent to the next round-robin
// replica and, like every tuple, charged to the task it is sent to, so
// the arrival accounting (and everything modeled from it) measures what
// each task processes.
func (p *Port) FeedBatch(ts []tuple.Tuple) {
	if len(ts) == 0 {
		return
	}
	s := p.s
	nd := len(s.tasks)
	if cap(p.dst) < len(ts) {
		p.dst = make([]int, len(ts))
	}
	dst := p.dst[:len(ts)]
	if st := s.router.dests(p, ts, dst); st != nil {
		// Hot keys present: DestTuples marked each split tuple ^j, j its
		// key's position in st. Record where the split tuples sit, claim
		// each split key's round-robin positions for the batch with one
		// atomic add, and remap only the recorded tuples to their
		// positions' replicas, in tuple order. Cold batches never enter
		// this block: one nil test per batch.
		ns := st.Len()
		if cap(p.claim) < ns {
			p.claim = make([]uint64, ns)
		}
		claim := p.claim[:ns]
		clear(claim)
		pos := p.pos[:0]
		for i, d := range dst {
			if d < 0 {
				claim[^d]++
				pos = append(pos, int32(i))
			}
		}
		for j, n := range claim {
			if n > 0 {
				claim[j] = st.At(j).Claim(int(n))
			}
		}
		for _, i := range pos {
			j := ^dst[i]
			reps := st.At(j).Replicas
			dst[i] = reps[claim[j]%uint64(len(reps))]
			claim[j]++
		}
		p.pos = pos
	}
	if cap(p.bounds) < nd+1 {
		p.bounds = make([]int, nd+1)
	}
	bounds := p.bounds[:nd+1]
	clear(bounds)
	active := 0
	for _, d := range dst {
		bounds[d+1]++
	}
	for d := 0; d < nd; d++ {
		if bounds[d+1] > 0 {
			active++
			atomic.AddInt64(&s.arrivedTuples[d], int64(bounds[d+1]))
		}
		bounds[d+1] += bounds[d]
	}
	// Carve contiguous per-destination regions out of a recycled backing
	// array; the tasks hand it back to the pool once the last subslice is
	// processed, so steady state allocates nothing per batch.
	bb := batchBufPool.Get().(*batchBuf)
	if cap(bb.data) < len(ts) {
		bb.data = make([]tuple.Tuple, len(ts))
	}
	bb.refs.Store(int32(active))
	buf := bb.data[:len(ts)]
	if cap(p.off) < nd {
		p.off = make([]int, nd)
	}
	off := p.off[:nd]
	copy(off, bounds[:nd])
	// Accumulate arrival cost per destination locally and publish one
	// atomic add per active destination below — an atomic RMW per tuple
	// here would cost more than the whole routing scatter.
	if cap(p.cost) < nd {
		p.cost = make([]int64, nd)
	}
	cost := p.cost[:nd]
	clear(cost)
	for i := range ts {
		d := dst[i]
		buf[off[d]] = ts[i]
		off[d]++
		cost[d] += ts[i].Cost
	}
	// A full task queue exerts backpressure on this feeder alone.
	for d := 0; d < nd; d++ {
		if lo, hi := bounds[d], bounds[d+1]; hi > lo {
			atomic.AddInt64(&s.arrivedCost[d], cost[d])
			s.tasks[d].sendBatch(buf[lo:hi:hi], bb)
		}
	}
}

// Barrier waits until every task has drained its queue.
func (s *Stage) Barrier() {
	for _, t := range s.tasks {
		t.barrier(nil)
	}
}

// SetDownstream wires (or, with nil, unwires) the stage's emission
// sink: every task's Emit streams into its own Port on next in
// emitChunk-sized batches from the task's own goroutine. Must be called
// while tasks are idle; the engine does so for every stage but the last
// when it is assembled.
func (s *Stage) SetDownstream(next *Stage) {
	if next == nil {
		// Guard the typed-nil trap: assigning a nil *Stage into the
		// BatchSink interface would make ctx.sink non-nil.
		s.SetSink(nil)
		return
	}
	s.SetSink(next)
}

// SetSink wires the stage's emissions into an arbitrary
// BatchSink — the generalization of SetDownstream the cluster runtime
// uses to point a stage's output at a data connection crossing a
// process boundary. Each task, ScaleOut's included, emits through its
// own sender's handle on sink (senderOf). Must be called while tasks
// are idle.
func (s *Stage) SetSink(sink BatchSink) {
	s.down = sink
	for _, t := range s.tasks {
		t.ctx.sink = senderOf(sink)
	}
}

// SetStateWire selects serialized-state migration: every key transfer
// this stage performs round-trips through state.Codec and the decoded
// copy is injected, exactly as a cross-process migration would arrive.
// Off (the default) moves state by reference — the pinned equivalence
// oracle. Must be called while the stage is idle.
func (s *Stage) SetStateWire(on bool) { s.stateWire = on }

// serializeTransfer round-trips x through the state codec, so the
// destination injects a decoded copy. On an error x keeps the source's
// references.
func (s *Stage) serializeTransfer(x *transfer) error {
	p, err := state.Codec{}.Encode(x.m, x.mem)
	if err == nil {
		var m state.Migrated
		var mem int64
		if m, mem, err = (state.Codec{}).Decode(p); err == nil {
			x.m, x.mem = m, mem
			return nil
		}
	}
	return fmt.Errorf("engine: stage %q: key %d: %w", s.Name, x.m.Key, err)
}

// StartInterval opens the stage for interval; the engine calls it
// before each interval's emission. Until CloseInterval seals the stage
// again, every actuation returns an error.
func (s *Stage) StartInterval(interval int64) {
	s.open = true
	s.curTick = interval
}

// setObserve turns the tasks' per-key statistics on or off. An
// unobserved task feeds its tracker nothing, so the stage's snapshots
// are empty; its stores still close every interval, and its rows and
// routing do not change. Must be called while tasks are idle (between
// intervals): the next interval's channel sends give them the
// happens-before edge.
func (s *Stage) setObserve(on bool) {
	s.observe = on
	for _, t := range s.tasks {
		t.ctx.observe = on
	}
}

// CloseInterval is the interval close — it seals the stage, so the
// actuations the control round issues next may run: every task runs its
// operator's FlushInterval hook (when implemented) and flushes its
// residual emission buffer downstream, on its own goroutine, after
// draining its queue — the per-stage step of the engine's cascading
// close. All tasks close concurrently; CloseInterval returns when the
// slowest is done, at which point every tuple this stage emitted this
// interval is in the downstream stage's queues and the downstream stage
// may be closed in turn. Each task's statistics harvest is queued right
// behind its close thunk, runs while the driver closes the next stage,
// and is collected by the next EndInterval: the close ends the
// interval's statistics, so a second close before that EndInterval
// queues no second harvest.
func (s *Stage) CloseInterval() {
	s.open = false
	// Fold split replicas home first: FlushInterval hooks (and the
	// harvest after them) must see canonical state. The fold's merge
	// thunks are FIFO-ordered ahead of the close thunks below.
	s.foldSplits()
	queue := s.harvest == nil
	dones := make([]chan struct{}, len(s.tasks))
	for i, t := range s.tasks {
		dones[i] = t.closeInterval()
		if queue {
			s.queueHarvest(i)
		}
	}
	for _, d := range dones {
		<-d
	}
}

// harvest is one interval's statistics harvest in flight: a run and a
// done channel per task, collected by EndInterval.
type harvest struct {
	runs [][]stats.KeyStat
	done []chan struct{}
}

// queueHarvest enqueues task d's share of the stage's pending harvest,
// opening one if none is pending: the task's directory closes the
// interval — its tracker face rolls the window and hands back its
// report as a run ordered by stats.KeyStatLess, in a buffer it
// recycles, and its store face evicts the buckets leaving the window in
// the same pass.
func (s *Stage) queueHarvest(d int) {
	if s.harvest == nil {
		s.harvest = &harvest{runs: make([][]stats.KeyStat, len(s.tasks)), done: make([]chan struct{}, len(s.tasks))}
	}
	h := s.harvest
	var asg *route.Assignment // immutable: safe for concurrent HashDest reads
	if s.ar != nil {
		asg = s.ar.Assignment()
	}
	h.done[d] = s.tasks[d].barrierAsync(func(ctx *TaskCtx) {
		run := ctx.Tracker.EndInterval()
		for i := range run {
			run[i].Dest, run[i].Hash = d, d
			if asg != nil {
				run[i].Hash = asg.HashDest(run[i].Key)
			}
		}
		h.runs[d] = run
	})
}

// ArrivedCost returns this interval's per-task arrived cost (valid
// until EndInterval resets it).
func (s *Stage) ArrivedCost() []int64 { return s.arrivedCost }

// ArrivedTuples returns this interval's per-task arrived tuple counts.
func (s *Stage) ArrivedTuples() []int64 { return s.arrivedTuples }

// EndInterval closes the statistics interval on every task and merges
// the per-task reports into a planner-ready snapshot (step 1 of Fig. 5:
// instances report to the controller). The harvest runs on all task
// goroutines concurrently (see queueHarvest) — queued by the preceding
// CloseInterval, or here, after a split fold, when no close preceded —
// and the driver waits for it and k-way-merges the sorted runs, so the
// interval-barrier cost is the slowest single task plus an O(n log ND)
// merge. Destinations are taken from the task that actually observed
// the key; hash destinations from the assignment router when present.
// Arrival accounting is reset. An unobserved stage's tasks report no
// keys (see setObserve), so its snapshot is empty; the harvest still
// closes their stores' interval, so windowed state expires as ever.
//
// The merge copies into one of two buffers the stage alternates
// between, so the snapshot never aliases a tracker's buffer and a steady
// close allocates nothing sized by the population. Its Keys are valid
// until the close after next (the rule the tracker's runs follow): long
// enough for the control round and for a hook that reads it after the
// next interval; whoever keeps a snapshot longer takes a Clone.
func (s *Stage) EndInterval(interval int64) *stats.Snapshot {
	if s.harvest == nil {
		s.foldSplits()
		for d := range s.tasks {
			s.queueHarvest(d)
		}
	}
	h := s.harvest
	s.harvest = nil
	for _, done := range h.done {
		<-done
	}
	snap := &stats.Snapshot{Interval: interval, ND: len(s.tasks)}
	buf := &s.merged[s.closes&1]
	s.closes++
	*buf = stats.MergeRuns((*buf)[:0], h.runs)
	snap.Keys = *buf
	for d := range s.arrivedCost {
		s.arrivedCost[d] = 0
		s.arrivedTuples[d] = 0
	}
	return snap
}

// keyMove is one key's migration edge: src still owns the state, the
// new assignment routes the key to dst.
type keyMove struct {
	k        tuple.Key
	src, dst int
}

// transfer is one key move's state in flight.
type transfer struct {
	m   state.Migrated
	mem int64
}

// ApplyPlan executes a rebalance plan — move each migrating key's
// windowed state and statistics from its current owner to the planned
// destination and publish the plan's table as the new assignment —
// through applyMoves. Like every actuation it runs on a sealed stage
// (after CloseInterval, before the next StartInterval: controller-hook
// time), on the goroutine that drives the stage's intervals. Returns
// the total state volume moved; an error with no state touched on an
// open stage or one without an assignment router; or the plan applied
// with applyMoves' error.
func (s *Stage) ApplyPlan(plan *balance.Plan) (int64, error) {
	if err := s.sealed("apply a plan"); err != nil {
		return 0, err
	}
	if s.ar == nil {
		return 0, fmt.Errorf("engine: stage %q has no assignment router; cannot apply plan", s.Name)
	}
	old := s.ar.Assignment()
	st := old.Splits()
	tbl := plan.Table.Clone()
	if st != nil {
		// A split key cannot migrate: its replica ring, statistics and
		// state are anchored to Home. The controller plans without split
		// keys and keeps their table entries (controller.SplitPinned);
		// this is the stage-level backstop for raw callers — patch the
		// incoming table so F(k) keeps resolving to the split home (which
		// makes the key's move a no-op below), and count every pin.
		hash := old.Hasher()
		st.Each(func(sp *route.Split) {
			cur := hash.Hash(sp.Key)
			if d, ok := tbl.Lookup(sp.Key); ok {
				cur = d
			}
			if cur == sp.Home {
				return
			}
			s.splitPinned++
			if hash.Hash(sp.Key) == sp.Home {
				tbl.Delete(sp.Key)
			} else {
				tbl.Put(sp.Key, sp.Home)
			}
		})
	}
	next := route.NewAssignment(tbl, old.Hasher())
	// The split set rides across plan publications untouched.
	next.SetSplits(st)
	return s.actuate(next, plan.Moved)
}

// sealed returns an error naming the stage and the refused actuation
// while the stage is open (between StartInterval and CloseInterval).
// Every actuation checks it before touching anything.
func (s *Stage) sealed(what string) error {
	if s.open {
		return fmt.Errorf("engine: stage %q is open (interval %d): cannot %s before CloseInterval", s.Name, s.curTick, what)
	}
	return nil
}

// actuate is the one way F changes: install next as the stage's
// assignment and move every key in keys whose destination differs
// between the current assignment and next — Δ(F, F′) — through
// applyMoves. keys are unique and in move order. A rebalance plan, a
// scale-out and a scale-in are each a different next and key set, with
// task creation or retirement around the call.
func (s *Stage) actuate(next *route.Assignment, keys []tuple.Key) (int64, error) {
	old := s.ar.Assignment()
	moves := make([]keyMove, 0, len(keys))
	for _, k := range keys {
		if src, dst := old.Dest(k), next.Dest(k); src != dst {
			moves = append(moves, keyMove{k: k, src: src, dst: dst})
		}
	}
	return s.applyMoves(next, moves)
}

// applyMoves is Fig. 5's steps 3–7 on a sealed stage: every task's
// queue holds only tuples routed under the current assignment, so a
// barrier behind them sees each window complete.
//
//  1. Extract, one barrier per source task, all sources concurrently:
//     FIFO-ordered after every queued tuple, the thunk takes the
//     windowed state and tracker history of all the task's outgoing
//     keys in one pass over its directory. The driver then serializes
//     the states in move order (state-wire mode).
//  2. Inject, one barrier per destination task, all concurrently.
//  3. Swap: publish next, so the next interval's feeders route Δ(F, F′)
//     to the new owners.
//  4. Account in move order: migration penalties and the moved volume.
//
// A plan costs two barrier rounds however many keys it moves; a task
// that both sends and receives extracts all before it injects any.
// Returns the migrated state volume, and in state-wire mode the first
// key whose state failed to encode: it moved by reference, to exactly
// one owner, but could not have crossed a process boundary.
func (s *Stage) applyMoves(next *route.Assignment, moves []keyMove) (int64, error) {
	perSrc := make([][]int, len(s.tasks)) // move indices, in move order
	perDst := make([][]int, len(s.tasks))
	for i, mv := range moves {
		perSrc[mv.src] = append(perSrc[mv.src], i)
		perDst[mv.dst] = append(perDst[mv.dst], i)
	}
	xs := make([]transfer, len(moves))
	s.eachTask(perSrc, func(ctx *TaskCtx, idx []int) {
		keys := make([]tuple.Key, len(idx))
		for j, i := range idx {
			keys[j] = moves[i].k
		}
		ctx.Store.Dir().Move(keys, func(j int, m state.Migrated, mem int64) {
			xs[idx[j]].m, xs[idx[j]].mem = m, mem
		})
	})
	var err error
	if s.stateWire {
		for i := range xs {
			if e := s.serializeTransfer(&xs[i]); err == nil {
				err = e
			}
		}
	}
	s.eachTask(perDst, func(ctx *TaskCtx, idx []int) {
		for _, i := range idx {
			k, x := moves[i].k, &xs[i]
			if x.m.Size > 0 {
				ctx.Store.Inject(x.m)
			}
			if x.mem > 0 {
				ctx.Tracker.AdoptKey(k, x.mem)
			}
		}
	})
	s.ar.Swap(next)
	var moved int64
	for i, mv := range moves {
		s.MigPenalty[mv.src] += xs[i].m.Size
		s.MigPenalty[mv.dst] += xs[i].m.Size
		moved += xs[i].m.Size
	}
	return moved, err
}

// eachTask runs fn on every task d that perTask[d] names moves for, on
// that task's goroutine with that task's moves (in order), all tasks
// concurrently, and returns once every thunk has run.
func (s *Stage) eachTask(perTask [][]int, fn func(ctx *TaskCtx, idx []int)) {
	var dones []chan struct{}
	for d, idx := range perTask {
		if len(idx) > 0 {
			dones = append(dones, s.tasks[d].barrierAsync(func(ctx *TaskCtx) { fn(ctx, idx) }))
		}
	}
	for _, d := range dones {
		<-d
	}
}

// LiveKeys returns the keys holding state on any task, ascending.
func (s *Stage) LiveKeys() []tuple.Key {
	var out []tuple.Key
	for _, t := range s.tasks {
		out = append(out, t.ctx.Store.Keys()...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// resizeRing returns the consistent-hash ring a resize regrows, or an
// error when the stage's router cannot resize.
func (s *Stage) resizeRing(what string) (*hashring.Ring, error) {
	if s.ar == nil {
		return nil, fmt.Errorf("engine: stage %q: %s requires an assignment router", s.Name, what)
	}
	ring, ok := s.ar.Assignment().Hasher().(*hashring.Ring)
	if !ok {
		return nil, fmt.Errorf("engine: stage %q: %s requires a consistent-hash ring hasher", s.Name, what)
	}
	return ring, nil
}

// ScaleOut adds one task instance and regrows the consistent-hash
// ring. Keys whose overall destination F(k) changes under the new ring
// have their state migrated immediately, in ascending key order, so
// processing stays correct; rebalancing toward θmax is then the
// controller's job on subsequent intervals (the Fig. 15 scenario).
// Returns the migrated volume, or an error (no state touched) on an
// open stage or when the stage's router cannot scale, or the move
// applied with applyMoves' error.
func (s *Stage) ScaleOut() (int64, error) {
	if err := s.sealed("scale out"); err != nil {
		return 0, err
	}
	ring, err := s.resizeRing("scale-out")
	if err != nil {
		return 0, err
	}
	// Fold back and retire every split before the ring changes: replica
	// rings are anchored to the pre-resize instance count. The detector
	// re-splits on the next interval's evidence.
	s.setSplits(nil)

	// The new instance takes its store clock from task 0 (every store
	// closes in step; the barrier orders the read after the task's last
	// close) and inherits the sink and the observation setting of its
	// siblings.
	var clock int64
	s.tasks[0].barrier(func(ctx *TaskCtx) { clock = ctx.Store.Interval() })
	id := len(s.tasks)
	nt := newTask(id, s.opFn(id), s.window, clock, s.observe)
	nt.ctx.sink = senderOf(s.down)
	s.tasks = append(s.tasks, nt)
	s.arrivedCost = append(s.arrivedCost, 0)
	s.arrivedTuples = append(s.arrivedTuples, 0)
	s.Backlog = append(s.Backlog, 0)
	s.MigPenalty = append(s.MigPenalty, 0)
	s.backlogT = append(s.backlogT, 0)

	// Keep the routing table; only keys on the new instance's arcs move.
	next := route.NewAssignment(s.ar.Assignment().Table().Clone(), ring.Grow())
	return s.actuate(next, s.LiveKeys())
}

// ScaleIn retires the stage's last task instance — the mirror of
// ScaleOut and the actuator the paper's §VII future work calls for:
// the retiring task is drained, the consistent-hash ring shrinks (only
// the retiring instance's arcs move; survivors keep theirs), routing
// table entries pointing at the retiring instance are dropped so those
// keys fall back to the shrunk ring, and every key the retiring task
// still stores or reports migrates to its surviving destination, in
// ascending key order, with windowed state and tracker history intact.
// The retired goroutine is stopped and all per-task bookkeeping shrinks;
// its residual model backlog folds into the last surviving instance
// (scale-in fires under sustained *low* utilization, where that backlog
// is ~0), while its accumulated send-side migration penalty retires with
// it — the decommissioned instance has no future intervals to charge.
//
// Like every actuation it runs on a sealed stage, at controller-hook
// time. Returns the migrated volume, or an error (no state touched) on
// an open stage or when the stage cannot retire an instance, or the
// move applied with applyMoves' error.
func (s *Stage) ScaleIn() (int64, error) {
	if err := s.sealed("scale in"); err != nil {
		return 0, err
	}
	ring, err := s.resizeRing("scale-in")
	if err != nil {
		return 0, err
	}
	if len(s.tasks) < 2 {
		return 0, fmt.Errorf("engine: stage %q cannot retire its only instance", s.Name)
	}
	// As in scale-out: the split set folds back before the ring shrinks
	// (a replica ring could otherwise reference the retiring instance).
	s.setSplits(nil)
	rid := len(s.tasks) - 1
	retiring := s.tasks[rid]

	// Drain the retiring task, then enumerate the keys it holds tracker
	// history for only (state already expired, statistics still
	// reported) plus everything the stage stores.
	var keys []tuple.Key
	retiring.barrier(func(ctx *TaskCtx) { keys = ctx.Tracker.Keys() })
	keys = append(keys, s.LiveKeys()...)
	slices.Sort(keys)
	keys = slices.Compact(keys)

	// The new assignment: table entries pointing at the retiring
	// instance are dropped (their keys fall back to the shrunk ring);
	// everything else is untouched, so surviving placements hold. By
	// ring construction the keys that move are exactly those F used to
	// send to the retiring instance, each landing on a surviving one.
	nt := s.ar.Assignment().Table().Clone()
	for _, k := range nt.Keys() {
		if d, _ := nt.Lookup(k); d == rid {
			nt.Delete(k)
		}
	}
	moved, err := s.actuate(route.NewAssignment(nt, ring.Shrink()), keys)

	// Retire the instance and shrink the per-task bookkeeping. Arrival
	// accounting was reset by EndInterval; any residual (a scale-in
	// between CloseInterval and EndInterval) folds into the last
	// survivor like the model backlog.
	retiring.stop()
	s.tasks = s.tasks[:rid]
	s.arrivedCost[rid-1] += s.arrivedCost[rid]
	s.arrivedCost = s.arrivedCost[:rid]
	s.arrivedTuples[rid-1] += s.arrivedTuples[rid]
	s.arrivedTuples = s.arrivedTuples[:rid]
	s.Backlog[rid-1] += s.Backlog[rid]
	s.Backlog = s.Backlog[:rid]
	s.backlogT[rid-1] += s.backlogT[rid]
	s.backlogT = s.backlogT[:rid]
	s.MigPenalty = s.MigPenalty[:rid]
	return moved, err
}

// Stop terminates all task goroutines (for tests and example
// teardown). Safe to call more than once.
func (s *Stage) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, t := range s.tasks {
		t.stop()
	}
}

// StoreOf returns task d's state store. Only safe while tasks are idle
// (between a barrier and the next Feed).
func (s *Stage) StoreOf(d int) *state.Store { return s.tasks[d].ctx.Store }
