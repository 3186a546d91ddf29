package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// system is a built workload the benchmark drives closed-loop: one
// caller, one interval at a time, each call returning when the interval
// — emission, close, harvest, control round, model — is complete.
type system interface {
	runInterval() error
	// series is the recorded stage's per-interval rows so far.
	series() []metrics.Interval
	// stop tears the system down and waits for its goroutines; only
	// afterwards may the operators' folds be read.
	stop() error
	// after reports what only exists once the run is over.
	after() aftermath
}

// aftermath is what a finished system leaves behind for the report.
type aftermath struct {
	assignment *route.Assignment // recorded stage's final partition function
	splitMax   int               // high-water mark of concurrently split keys
	conns      []*protocol.Stats // cluster only: per-connection counters
}

// engineSystem drives a topology.System through the engine's own
// RunInterval — the shipped driver, used for every end-to-end number.
type engineSystem struct {
	sys *topology.System
	sp  *controller.Splitter
}

func (s *engineSystem) runInterval() error         { s.sys.Engine.RunInterval(); return nil }
func (s *engineSystem) series() []metrics.Interval { return s.sys.Recorder().Series }
func (s *engineSystem) stop() error                { s.sys.Stop(); return nil }
func (s *engineSystem) after() aftermath           { return localAftermath(s.sys, s.sp) }

func localAftermath(sys *topology.System, sp *controller.Splitter) aftermath {
	var a aftermath
	if ar := sys.Stage(sys.Engine.Target).AssignmentRouter(); ar != nil {
		a.assignment = ar.Assignment()
	}
	if sp != nil {
		a.splitMax = sp.MaxActive
	}
	return a
}

// stepSystem is the benchmark's own copy of the engine's pipelined
// interval sequence — StartInterval → throttle → draw/FeedBatch →
// cascading CloseInterval → EndInterval → control hooks → StepModel —
// spelled out over the stages' public API so that a span can sit around
// each step. It must stay equivalent to engine.RunInterval; the traced
// run checks that on every invocation by comparing its series with the
// engine-driven run of the same input.
type stepSystem struct {
	sys      *topology.System
	sp       *controller.Splitter
	tr       *tracer // nil: same sequence, no spans
	em       *engine.Emitter
	hooks    []engine.SnapshotHook // per stage, nil without a control loop
	backlog  [][]int64
	backlogT [][]int64
	capacity []int64
	interval int64
	rec      metrics.Recorder
}

// spannedSink is stage 0 as the emitter sees it, with a span around
// every FeedBatch call.
type spannedSink struct {
	st *engine.Stage
	tr *tracer
}

func (s spannedSink) FeedBatch(ts []tuple.Tuple) {
	sp := s.tr.begin(spanFeed)
	s.st.FeedBatch(ts)
	s.tr.end(sp)
}

func newStepSystem(sys *topology.System, sp *controller.Splitter, spout engine.SpoutBatch, tr *tracer) *stepSystem {
	e := sys.Engine
	n := len(e.Stages)
	d := &stepSystem{
		sys: sys, sp: sp, tr: tr,
		em:       engine.NewEmitter(spannedSink{e.Stages[0], tr}, spout, nil, 1, false),
		hooks:    make([]engine.SnapshotHook, n),
		backlog:  make([][]int64, n),
		backlogT: make([][]int64, n),
		capacity: make([]int64, n),
	}
	for si, st := range e.Stages {
		if l := sys.Loop(si); l != nil {
			d.hooks[si] = l.Hook()
		}
		d.backlogT[si] = make([]int64, st.Instances())
		d.capacity[si] = e.CapacityOf(si)
		if si+1 < n {
			st.SetDownstream(e.Stages[si+1])
		}
	}
	return d
}

func (d *stepSystem) runInterval() error {
	e, tr := d.sys.Engine, d.tr
	stages := e.Stages
	iv := tr.begin(spanInterval)

	for si, s := range stages {
		s.StartInterval(d.interval)
		d.backlog[si] = s.Backlog
	}
	emitN := engine.ThrottleBudget(e.Cfg.Budget, e.Cfg.MaxPendingFactor, d.capacity, d.backlog)
	e.SetLastEmitted(emitN)
	if got := d.em.Emit(d.interval, emitN); got < emitN {
		emitN = got
		e.SetLastEmitted(got)
	}

	sp := tr.begin(spanClose)
	for _, s := range stages {
		s.CloseInterval()
	}
	tr.end(sp)

	type arrivals struct{ cost, tuples []int64 }
	arrived := make([]arrivals, len(stages))
	for si, s := range stages {
		arrived[si] = arrivals{
			cost:   append([]int64(nil), s.ArrivedCost()...),
			tuples: append([]int64(nil), s.ArrivedTuples()...),
		}
	}

	sp = tr.begin(spanHarvest)
	snaps := make([]*stats.Snapshot, len(stages))
	for si, s := range stages {
		snaps[si] = s.EndInterval(d.interval)
	}
	tr.end(sp)

	target := stages[e.Target]
	var liveState int64
	for t := 0; t < target.Instances(); t++ {
		liveState += target.StoreOf(t).TotalSize()
	}

	sp = tr.begin(spanRound)
	var reb *engine.Rebalance
	for si, h := range d.hooks {
		if h == nil {
			continue
		}
		if r := h(e, si, snaps[si]); r != nil && si == e.Target && reb == nil {
			reb = r
		}
	}
	tr.end(sp)

	sp = tr.begin(spanModel)
	var row metrics.Interval
	for si, s := range stages {
		p := engine.ModelParams{
			Capacity:        d.capacity[si],
			MigrationFactor: e.Cfg.MigrationFactor,
			LatencyFloorMs:  e.Cfg.LatencyFloorMs,
		}
		m := engine.StepModel(p, s.Backlog, d.backlogT[si], s.MigPenalty, arrived[si].cost, arrived[si].tuples)
		if si == e.Target {
			row = m
		}
	}
	row.Index = d.interval
	row.Emitted = emitN
	if reb != nil && reb.Plan != nil {
		row.Rebalanced = true
		row.PlanMs = float64(reb.Plan.GenTime.Microseconds()) / 1000
		row.TableSize = reb.Plan.TableSize()
		if liveState > 0 {
			row.MigrationPct = 100 * float64(reb.Moved) / float64(liveState)
		}
		tr.count("state.moved_units", reb.Moved)
	}
	d.rec.Add(row)
	tr.end(sp)

	d.interval++
	tr.end(iv)
	tr.nextInterval()
	return nil
}

func (d *stepSystem) series() []metrics.Interval { return d.rec.Series }
func (d *stepSystem) stop() error                { d.sys.Stop(); return nil }
func (d *stepSystem) after() aftermath           { return localAftermath(d.sys, d.sp) }

// clusterSystem is the spec deployed on a coordinator and two workers,
// all in this process, talking over unix sockets in a directory under
// the working directory. The coordinator's RunInterval is the only
// driver there is, so a traced run can put a span around the interval
// and around each spout draw, and nothing in between.
type clusterSystem struct {
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	errs    chan error
	dir     string
	tr      *tracer
	target  int // index of the recorded stage
	left    aftermath
}

const clusterWorkers = 2

// sockRoot holds the per-run socket directories. It is relative, which
// keeps socket paths short (sun_path is 108 bytes) wherever the checkout
// lives, and inside the working directory.
const sockRoot = ".bench_build"

func startCluster(spec *cluster.Spec, tr *tracer) (*clusterSystem, error) {
	if err := os.MkdirAll(sockRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(sockRoot, "sock")
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(spec, "unix", filepath.Join(dir, "c.sock"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &clusterSystem{coord: coord, errs: make(chan error, clusterWorkers), dir: dir, tr: tr}
	for si, st := range spec.Stages {
		if st.Target {
			s.target = si
			break
		}
	}
	for i := 0; i < clusterWorkers; i++ {
		w, err := cluster.NewWorker("unix", coord.Addr(), filepath.Join(dir, fmt.Sprintf("w%d.sock", i)), fmt.Sprintf("w%d", i))
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, w)
		go func() { s.errs <- w.Run() }()
	}
	if err := coord.Deploy(clusterWorkers); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *clusterSystem) runInterval() error {
	iv := s.tr.begin(spanInterval)
	err := s.coord.RunInterval()
	s.tr.end(iv)
	s.tr.nextInterval()
	return err
}

func (s *clusterSystem) series() []metrics.Interval { return s.coord.Recorder().Series }

// stop says Bye to the workers (collecting their connection counters),
// waits for every worker's Run to return, and removes the sockets.
func (s *clusterSystem) stop() error {
	conns, err := s.coord.Shutdown()
	s.left.conns = conns
	for range s.workers {
		if werr := <-s.errs; werr != nil && err == nil {
			err = werr
		}
	}
	for _, w := range s.workers {
		if st := w.Stage(s.target); st != nil && st.AssignmentRouter() != nil {
			s.left.assignment = st.AssignmentRouter().Assignment()
		}
	}
	s.workers = nil // a second stop waits for nobody
	if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

func (s *clusterSystem) after() aftermath { return s.left }
