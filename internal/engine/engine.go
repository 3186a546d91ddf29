package engine

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Spout produces the next input tuple. The paper configured spout
// parallelism at 10; since our spouts are in-process generators the
// parallelism collapses into one deterministic draw sequence.
type Spout func() tuple.Tuple

// SpoutBatch fills dst with the next tuples of the stream and returns
// how many were written (len(dst) for the endless generators). Fewer
// signals exhaustion, which is terminal: the stream has ended, the
// interval's emission stops, and the engine may or may not re-enter
// the spout afterwards (the serial path polls it once per later
// interval; the sharded path latches and never calls again — both
// observable behaviors coincide because an exhausted source keeps
// returning 0). It is the batch-capable spout contract: the engine
// hands it a reusable scratch buffer, so a full emission costs one
// call per few hundred tuples instead of one call per tuple.
type SpoutBatch func(dst []tuple.Tuple) int

// BatchSpout adapts a legacy per-tuple Spout to SpoutBatch, preserving
// the draw sequence exactly — experiments keep their published outputs
// whether they are wired per tuple or per batch.
func BatchSpout(s Spout) SpoutBatch {
	return func(dst []tuple.Tuple) int {
		for i := range dst {
			dst[i] = s()
		}
		return len(dst)
	}
}

// Config is the engine's performance model (see "Execution model" in
// README.md). The paper
// drove its cluster to CPU saturation at perfect balance; we mirror
// that with Capacity = spout budget / ND for the target stage, so any
// imbalance immediately shows up as backlog, throttling and latency.
type Config struct {
	// Budget is the spout's tuple budget per interval at full rate.
	Budget int64
	// Capacity is a task's service capacity in cost units per interval;
	// 0 derives saturation capacity Budget/ND from the target stage.
	Capacity int64
	// MaxPendingFactor is the backpressure threshold: when a task's
	// backlog exceeds MaxPendingFactor·Capacity, the spout throttles
	// proportionally (Storm's max-pending mechanism).
	MaxPendingFactor float64
	// MigrationFactor converts one unit of migrated state into consumed
	// service capacity on both endpoints in the following interval.
	// State transfer is bulk I/O overlapping normal processing, so a
	// unit of state costs a fraction of a unit of tuple service; 0.5
	// makes heavy migrations (MinTable's full reshuffles) visibly dent
	// throughput while Mixed's minimal plans stay cheap — the Fig. 15/16
	// contrast.
	MigrationFactor float64
	// LatencyFloorMs is an additive latency term for schemes with extra
	// coordination (PKG's merge period p).
	LatencyFloorMs float64
}

// DefaultConfig returns the model used across the experiments. The
// pending threshold is deliberately tight (half an interval's service),
// mirroring the paper's Storm configuration of a small max-pending: a
// single backed-up instance throttles the whole spout, which is exactly
// how intra-operator imbalance destroys cluster throughput in §I.
func DefaultConfig() Config {
	return Config{Budget: 10000, MaxPendingFactor: 0.5, MigrationFactor: 0.5}
}

// emitChunk is the spout batch size: large enough to amortize the
// routing, channel and goroutine-switch costs across many
// tuples (throughput keeps improving up to ~1k tuples per chunk),
// small enough that a default interval still feeds in several chunks
// and the scratch buffer stays modest (64 KiB).
const emitChunk = 1024

// Rebalance reports what the controller hook did at an interval end:
// a rebalance plan, elastic resizes, or both (the unified control
// plane can apply a plan and a scale command in one round).
type Rebalance struct {
	Plan  *balance.Plan
	Moved int64
	// ScaledOut and ScaledIn count instance additions and
	// retirements applied this interval end.
	ScaledOut int
	ScaledIn  int
}

// SnapshotHook is a controller callback invoked at each interval end
// with one stage's harvested statistics. It may apply a plan (via
// stage.ApplyPlan) and report what it did; a nil return means it took
// no rebalance action. Hooks run on the driver goroutine while every
// task is idle (post-harvest), so plan application is barrier-safe.
type SnapshotHook = func(e *Engine, stageIdx int, snap *stats.Snapshot) *Rebalance

// Engine runs a pipeline of stages over logical intervals.
type Engine struct {
	// SpoutB draws tuples through the batch API straight into the
	// engine's reusable scratch buffer (BatchSpout adapts a per-tuple
	// Spout).
	SpoutB SpoutBatch
	Stages []*Stage
	Cfg    Config
	// Target selects the stage whose metrics are recorded (the operator
	// under study; downstream stages still execute and consume).
	Target   int
	Recorder *metrics.Recorder
	// AdvanceWorkload, when set, is invoked after each interval so the
	// generator can shift its distribution (fluctuation, bursts).
	AdvanceWorkload func(interval int64)

	// stageHooks is the per-stage snapshot fan-out: stageHooks[si] are
	// invoked with stage si's snapshot only, letting every stage carry
	// its own controller. Maintained by AddSnapshotHook; nil until the
	// first registration.
	stageHooks [][]SnapshotHook

	interval int64
	capacity []int64 // per stage
	lastEmit int64
	stopped  bool
	// emitter is the emission plane (spout draw → chunked FeedBatch into
	// stage 0), built lazily on the first interval so spout fields may
	// be assigned any time before.
	emitter *Emitter
	// throttleBacklog is the reusable per-stage backlog view handed to
	// ThrottleBudget each interval.
	throttleBacklog [][]int64
}

// NewBatch assembles an engine drawing tuples through a batch-capable
// spout, skipping the per-tuple adapter on the emission path.
func NewBatch(spout SpoutBatch, cfg Config, stages ...*Stage) *Engine {
	e := &Engine{SpoutB: spout, Stages: stages, Cfg: cfg, Recorder: &metrics.Recorder{}}
	return e.init()
}

func (e *Engine) init() *Engine {
	cfg, stages := e.Cfg, e.Stages
	e.capacity = make([]int64, len(stages))
	for i, s := range stages {
		c := cfg.Capacity
		if c == 0 {
			c = cfg.Budget / int64(s.Instances())
			if c < 1 {
				c = 1
			}
		}
		e.capacity[i] = c
		// Per-key statistics are read only by snapshot hooks:
		// AddSnapshotHook turns them back on for the stages it serves.
		s.setObserve(false)
		// Operators stream to each other: every stage but the last
		// emits into its successor. The last stage's sink is the
		// caller's (a capture, a cluster data connection) and is left
		// alone.
		if i+1 < len(stages) {
			s.SetDownstream(stages[i+1])
		}
	}
	return e
}

// CapacityOf returns stage si's per-task service capacity in cost
// units per interval.
func (e *Engine) CapacityOf(si int) int64 { return e.capacity[si] }

// SetStageCapacity overrides stage si's per-task service capacity,
// replacing the Cfg.Capacity / Budget-derived default. Call before the
// first RunInterval (the performance model reads it every interval).
func (e *Engine) SetStageCapacity(si int, c int64) {
	if c < 1 {
		c = 1
	}
	e.capacity[si] = c
}

// AddSnapshotHook registers a per-stage controller hook: h is invoked
// at each interval end with stage si's harvested snapshot. Each stage
// can carry any number of hooks
// (they run in registration order), so multi-stage topologies can put
// an independent controller on every stage. Call before the first
// RunInterval or between intervals; the hook list is read on the
// driver goroutine only. A stage observes per-key statistics only while
// it has a hook: registering one turns observation on for stage si from
// the next interval.
func (e *Engine) AddSnapshotHook(si int, h SnapshotHook) {
	if e.stageHooks == nil {
		e.stageHooks = make([][]SnapshotHook, len(e.Stages))
	}
	e.stageHooks[si] = append(e.stageHooks[si], h)
	e.Stages[si].setObserve(true)
}

// LastEmitted returns the post-throttle tuple count of the most recent
// interval; comparing it with Cfg.Budget reveals how much demand the
// backpressure suppressed.
func (e *Engine) LastEmitted() int64 { return e.lastEmit }

// SetLastEmitted records the post-throttle emission for the current
// interval. Cluster workers call it when the coordinator owns the
// spout: their stages never run the emission loop, but load reports
// still carry Emitted so a remote controller judges demand exactly as
// a single-process run would.
func (e *Engine) SetLastEmitted(n int64) { e.lastEmit = n }

// Run executes n intervals.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.RunInterval()
	}
}

// RunInterval drives one full logical interval: throttled emission,
// streaming processing, the cascading close, then EndStage on every
// stage, recording the target stage's row.
func (e *Engine) RunInterval() {
	if e.stopped {
		panic("engine: RunInterval after Stop")
	}
	for _, s := range e.Stages {
		s.StartInterval(e.interval)
	}

	// Backpressure: Storm's max-pending, applied against every stage —
	// with stages running concurrently, a slow downstream stage must
	// throttle the spout exactly like the stage under study. The spout
	// slows in proportion to the worst backlog-beyond-threshold across
	// all stages.
	if e.throttleBacklog == nil {
		e.throttleBacklog = make([][]int64, len(e.Stages))
	}
	for si, s := range e.Stages {
		e.throttleBacklog[si] = s.Backlog
	}
	emitN := ThrottleBudget(e.Cfg.Budget, e.Cfg.MaxPendingFactor, e.capacity, e.throttleBacklog)
	e.lastEmit = emitN

	// Feed the pipeline. Emission runs through reusable scratch buffers
	// in emitChunk-sized batches: the spout fills a scratch, the stage's
	// FeedBatch copies the tuples into per-destination messages, and the
	// scratch is immediately reusable for the next chunk. Every
	// downstream stage is consuming concurrently from the first chunk
	// on — its tasks receive upstream flushes mid-interval — so the
	// emission loop below drives the whole topology, not just stage 0.
	if got := e.emit(emitN); got < emitN {
		// The spout ended early (finite batch sources); record the true
		// emission so the model and metrics charge what actually
		// arrived.
		e.lastEmit = got
	}
	// Cascading close: once stage s's tasks have drained, flushed their
	// interval hooks and streamed their residual buffers, all of stage
	// s's output is in stage s+1's queues and s+1 can be closed in turn.
	for _, s := range e.Stages {
		s.CloseInterval()
	}

	// End the interval stage by stage.
	for si := range e.Stages {
		if m := e.EndStage(si, e.interval); si == e.Target {
			e.Recorder.Add(m)
		}
	}

	e.interval++
	if e.AdvanceWorkload != nil {
		e.AdvanceWorkload(e.interval)
	}
}

// EndStage ends the given interval on stage si once its input is
// closed: capture the arrival accounting, harvest the statistics
// (Stage.EndInterval), measure the live state, run the stage's snapshot
// hooks, step its queueing model, and return the stage's row.
// RunInterval calls it for
// every stage after the cascading close; a cluster worker calls it on
// the single-stage engine hosting a remote stage, so both end an
// interval with this one sequence. The row's Emitted is LastEmitted;
// its rebalance fields record the first hook that reported an action.
func (e *Engine) EndStage(si int, interval int64) metrics.Interval {
	s := e.Stages[si]
	cost := append([]int64(nil), s.ArrivedCost()...)
	tuples := append([]int64(nil), s.ArrivedTuples()...)
	snap := s.EndInterval(interval) // resets the arrival accounting

	// Pre-rebalance live state volume for migration percentage.
	var liveState int64
	for d := 0; d < s.Instances(); d++ {
		liveState += s.StoreOf(d).TotalSize()
	}

	// Controller hooks may migrate keys, swap assignments and resize the
	// stage; the model below charges what they did.
	var reb *Rebalance
	if e.stageHooks != nil {
		for _, h := range e.stageHooks[si] {
			if r := h(e, si, snap); r != nil && reb == nil {
				reb = r
			}
		}
	}

	m := StepModel(ModelParams{
		Capacity:        e.capacity[si],
		MigrationFactor: e.Cfg.MigrationFactor,
		LatencyFloorMs:  e.Cfg.LatencyFloorMs,
	}, s.Backlog, s.backlogT, s.MigPenalty, cost, tuples)
	m.Index = interval
	m.Emitted = e.lastEmit
	if reb != nil {
		m.ScaleOuts = reb.ScaledOut
		m.ScaleIns = reb.ScaledIn
		if reb.Plan != nil {
			m.Rebalanced = true
			m.PlanMs = float64(reb.Plan.GenTime.Microseconds()) / 1000
			m.TableSize = reb.Plan.TableSize()
			if liveState > 0 {
				m.MigrationPct = 100 * float64(reb.Moved) / float64(liveState)
			}
		}
	}
	return m
}

// ModelParams are the per-stage constants of the queueing model:
// everything StepModel needs beyond the interval's arrays.
type ModelParams struct {
	// Capacity is the per-task service capacity in cost units per
	// interval.
	Capacity int64
	// MigrationFactor converts one unit of migrated state into consumed
	// service capacity (Config.MigrationFactor).
	MigrationFactor float64
	// LatencyFloorMs is the additive latency term
	// (Config.LatencyFloorMs).
	LatencyFloorMs float64
}

// ThrottleBudget applies Storm's max-pending backpressure to one
// interval's spout budget: the spout slows in proportion to the worst
// backlog-beyond-threshold across all stages (capacity[si] and
// backlog[si] describe stage si; a non-positive threshold exempts the
// stage), floored at 10% of the budget. It is the engine's throttle
// step detached from the engine so a cluster coordinator — which holds
// the backlogs its workers ship but not the stages — computes the
// bit-identical emission decision.
func ThrottleBudget(budget int64, maxPendingFactor float64, capacity []int64, backlog [][]int64) int64 {
	emitN := budget
	throttle := 1.0
	for si := range backlog {
		maxPending := int64(maxPendingFactor * float64(capacity[si]))
		if maxPending <= 0 {
			continue
		}
		var worst int64
		for _, b := range backlog[si] {
			if b > worst {
				worst = b
			}
		}
		if worst > maxPending {
			if f := float64(maxPending) / float64(worst); f < throttle {
				throttle = f
			}
		}
	}
	if throttle < 1 {
		if throttle < 0.1 {
			throttle = 0.1
		}
		emitN = int64(throttle * float64(emitN))
	}
	return emitN
}

// StepModel advances one stage's queueing model by one interval and
// returns the interval metrics (throughput, latency, skewness). The
// instance count is len(backlog); backlog (cost units) and backlogT
// (tuples) are updated in place and migPenalty is consumed and zeroed.
// cost and tuples are the interval's per-instance arrivals, captured
// before any resize: shorter arrays pad with zero-arrival instances, a
// longer tail (retired instances) folds into the last survivor — its
// already-processed work must stay in the throughput account, and its
// keys' future tuples route to survivors anyway. Exported so a driver
// that spells the interval sequence out itself steps the identical
// model.
func StepModel(p ModelParams, backlog, backlogT, migPenalty, cost, tuples []int64) metrics.Interval {
	n := len(backlog)
	for len(cost) < n {
		cost = append(cost, 0)
		tuples = append(tuples, 0)
	}
	if len(cost) > n {
		for d := n; d < len(cost); d++ {
			cost[n-1] += cost[d]
			tuples[n-1] += tuples[d]
		}
		cost, tuples = cost[:n], tuples[:n]
	}
	cap64 := p.Capacity
	var thr float64
	var latSum, latW float64
	for d := 0; d < n; d++ {
		offeredC := backlog[d] + cost[d]
		offeredT := backlogT[d] + tuples[d]
		eff := cap64 - int64(p.MigrationFactor*float64(migPenalty[d]))
		if eff < 0 {
			eff = 0
		}
		processedC := offeredC
		if processedC > eff {
			processedC = eff
		}
		var processedT int64
		if offeredC > 0 {
			processedT = int64(float64(offeredT) * float64(processedC) / float64(offeredC))
		}
		newBacklogC := offeredC - processedC
		newBacklogT := offeredT - processedT
		// Latency: average queueing delay over the interval plus the
		// service time of one tuple, in ms of the 1-second interval.
		avgQ := float64(backlog[d]+newBacklogC) / 2
		var lat float64
		if cap64 > 0 {
			lat = 1000 * avgQ / float64(cap64)
			if offeredT > 0 {
				lat += 1000 * (float64(offeredC) / float64(offeredT)) / float64(cap64)
			}
		}
		lat += p.LatencyFloorMs
		latSum += lat * float64(tuples[d])
		latW += float64(tuples[d])
		thr += float64(processedT)
		backlog[d] = newBacklogC
		backlogT[d] = newBacklogT
		migPenalty[d] = 0
	}
	var m metrics.Interval
	m.Throughput = thr
	if latW > 0 {
		m.LatencyMs = latSum / latW
	}
	m.Skewness = stats.Skewness(cost)
	m.MaxTheta = stats.MaxTheta(cost)
	return m
}

// ResizeStage changes stage si's instance set by delta (+1 scale-out,
// −1 scale-in) — the generalized elastic actuator (any stage, both
// directions) behind the unified control plane's ScaleOut/ScaleIn
// commands, run between intervals like every actuation. The stage
// reshapes its own model arrays. Capacity per task stays fixed:
// resizing changes headroom, not per-instance speed. Returns the
// migrated volume; an error — with no state touched — on an invalid
// delta, an open stage or a stage whose router cannot resize (no
// assignment router, non-ring hasher, retiring the only instance); and
// the stage's state-wire failure (ApplyPlan).
func (e *Engine) ResizeStage(si, delta int) (int64, error) {
	switch delta {
	case 1:
		return e.Stages[si].ScaleOut()
	case -1:
		return e.Stages[si].ScaleIn()
	default:
		return 0, fmt.Errorf("engine: ResizeStage delta must be ±1 (got %d)", delta)
	}
}

// Stop terminates all stage goroutines.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	for _, s := range e.Stages {
		s.Stop()
	}
}
