package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/topology"
)

// hostedStage is one pipeline stage living on this worker: the stage
// itself wrapped in a single-stage engine (which ends its intervals and
// carries its control round, over the worker's session, as a snapshot
// hook), plus its downstream data connection (nil for the last stage).
type hostedStage struct {
	si   int
	st   *engine.Stage
	eng  *engine.Engine
	exec *control.Executor // the control round's actuator; nil without coordinator-side policies
	down *BatchConn
	// processed accumulates the stage's arrived-tuple total across
	// intervals — the zero-loss account HarvestDone reports.
	processed int64
}

// Worker hosts stages for one coordinator session. Run (or RunWorker)
// drives it to completion: register, build assigned stages, answer the
// interval drive, tear down on Shutdown.
type Worker struct {
	name    string
	network string

	session *Conn
	dataLn  *Listener

	mu        sync.Mutex
	cond      *sync.Cond
	stages    map[int]*hostedStage
	dataConns []*Conn
	closed    bool
	dataErr   error // first data-plane failure, see failData

	wg sync.WaitGroup // data-plane goroutines
}

// NewWorker dials the coordinator at coord (network "tcp" or "unix"),
// opens this worker's data-plane listener on dataAddr (e.g.
// "127.0.0.1:0" for tcp, a socket path for unix) and registers. The
// returned worker is idle until Run.
func NewWorker(network, coord, dataAddr, name string) (*Worker, error) {
	w := &Worker{name: name, network: network, stages: map[int]*hostedStage{}}
	w.cond = sync.NewCond(&w.mu)
	ln, err := Listen(network, dataAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: data listener: %w", name, err)
	}
	w.dataLn = ln
	sess, _, err := Dial(network, coord, &protocol.Hello{Role: "worker", Worker: name, DataAddr: ln.Addr()})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("cluster: worker %s: register: %w", name, err)
	}
	sess.SetName("session")
	w.session = sess
	go w.acceptData()
	return w, nil
}

// RunWorker is the whole worker lifecycle in one call — what
// cmd/worker's main comes down to. It returns nil on a clean
// coordinator-driven shutdown.
func RunWorker(network, coord, dataAddr, name string) error {
	w, err := NewWorker(network, coord, dataAddr, name)
	if err != nil {
		return err
	}
	return w.Run()
}

// Run serves the coordinator session until Shutdown (nil) or an error —
// the session's, a stage's, or the first one an inbound data connection
// latched (failData) — which it sends as a Shutdown's reason, if the
// session still carries one. Teardown runs in every case.
func (w *Worker) Run() error {
	defer w.teardown()
	err := w.serveSession()
	w.mu.Lock()
	err = cmp.Or(w.dataErr, err)
	w.mu.Unlock()
	if err != nil {
		_ = w.session.Send(&protocol.Message{Bye: &protocol.Shutdown{Reason: err.Error()}})
	}
	return err
}

func (w *Worker) serveSession() error {
	for {
		m, err := w.session.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Coordinator closed the session without Shutdown — an
				// abort, but a clean frame-level one.
				return nil
			}
			return fmt.Errorf("cluster: worker %s: session: %w", w.name, err)
		}
		switch {
		case m.Assign != nil:
			if err := w.assign(m.Assign); err != nil {
				return err
			}
			if err := w.ack(m.Assign.Stage, 0); err != nil {
				return err
			}
		case m.Start != nil:
			w.mu.Lock()
			for _, h := range w.stages {
				h.st.StartInterval(m.Start.Interval)
				h.eng.SetLastEmitted(m.Start.Emit)
			}
			w.mu.Unlock()
			if err := w.ack(-1, m.Start.Interval); err != nil {
				return err
			}
		case m.Close != nil:
			h := w.stage(m.Close.Stage)
			if h == nil {
				return fmt.Errorf("cluster: worker %s: close for unassigned stage %d", w.name, m.Close.Stage)
			}
			h.st.CloseInterval()
			if h.down != nil {
				if err := h.down.Flush(); err != nil {
					return fmt.Errorf("cluster: worker %s: stage %d downstream flush: %w", w.name, h.si, err)
				}
			}
			if err := w.ack(h.si, 0); err != nil {
				return err
			}
		case m.Harvest != nil:
			done, err := w.harvest(m.Harvest)
			if err != nil {
				return err
			}
			if err := w.session.Send(&protocol.Message{Harvested: done}); err != nil {
				return err
			}
		case m.Bye != nil:
			stats := w.stats()
			if err := w.session.Send(&protocol.Message{ConnStats: stats}); err != nil {
				return err
			}
			return nil
		default:
			return fmt.Errorf("cluster: worker %s: unexpected session message %s", w.name, m.Kind())
		}
	}
}

func (w *Worker) ack(task int, interval int64) error {
	return w.session.Send(&protocol.Message{Ack: &protocol.Ack{TaskID: task, Interval: interval}})
}

func (w *Worker) stage(si int) *hostedStage {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stages[si]
}

// assign builds one stage with the topology builder's own per-stage
// constructor (StageSpec.NewStage and Model), then wires its data
// plane and, when the coordinator holds policies for it, its control
// round over the session. The stage lives inside its own single-stage
// engine: the executor's actuation surface (capacity, resize,
// last-emitted) and the interval end (EndStage), detached from the
// emission and close that the coordinator drives. An operator this binary has not
// registered ends the session with an error naming it.
func (w *Worker) assign(a *protocol.StageAssign) error {
	spec := topology.StageSpec{
		Name: a.Name, Op: a.Op, Instances: a.Instances, Window: a.Window,
		Algorithm: topology.Algorithm(a.Algorithm), Capacity: a.Capacity, Target: a.Target,
	}
	st, err := spec.NewStage()
	if err != nil {
		return fmt.Errorf("cluster: worker %s: %w", w.name, err)
	}
	m := spec.Model()
	eng := engine.NewBatch(nil, engine.Config{
		Budget: a.Budget, Capacity: m.Capacity,
		MigrationFactor: m.MigrationFactor, LatencyFloorMs: m.LatencyFloorMs,
	}, st)
	st.SetStateWire(true)
	h := &hostedStage{si: a.Stage, st: st, eng: eng}
	if a.Downstream != "" {
		dc, _, err := Dial(w.network, a.Downstream, &protocol.Hello{
			Role: "data", Worker: w.name, Stage: a.DownStage,
		})
		if err != nil {
			st.Stop()
			return fmt.Errorf("cluster: worker %s: stage %d: dial downstream s%d: %w", w.name, a.Stage, a.DownStage, err)
		}
		dc.SetName(fmt.Sprintf("data s%d→s%d", a.Stage, a.DownStage))
		h.down = NewBatchConn(dc)
		st.SetSink(h.down)
	}
	if a.Control {
		h.exec = control.NewExecutor(eng, 0, w.session)
		eng.AddSnapshotHook(0, h.exec.Hook())
	}
	w.mu.Lock()
	w.stages[a.Stage] = h
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// harvest ends one stage's interval with the engine's own sequence
// (EndStage: harvest, control round, queueing model) after recording
// the true emission, and answers with the finished row, the post-model
// backlog the coordinator throttles on, and the zero-loss account. A
// migration whose state could not be encoded ends the session instead.
func (w *Worker) harvest(req *protocol.HarvestReq) (*protocol.HarvestDone, error) {
	h := w.stage(req.Stage)
	if h == nil {
		return nil, fmt.Errorf("cluster: worker %s: harvest for unassigned stage %d", w.name, req.Stage)
	}
	for _, t := range h.st.ArrivedTuples() {
		h.processed += t
	}
	h.eng.SetLastEmitted(req.Emit)
	row := h.eng.EndStage(0, req.Interval)
	if h.exec != nil && h.exec.Err() != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", w.name, h.exec.Err())
	}
	return &protocol.HarvestDone{
		Stage: h.si, Interval: req.Interval, Row: row,
		Backlog: h.st.Backlog, Processed: h.processed,
	}, nil
}

// Stage returns the hosted stage's engine.Stage, or nil — test access
// to routing tables and state stores after a run.
func (w *Worker) Stage(si int) *engine.Stage {
	if h := w.stage(si); h != nil {
		return h.st
	}
	return nil
}

// stats assembles the worker's per-connection byte counters: the
// session itself, each stage's downstream data connection, and every
// accepted inbound data connection.
func (w *Worker) stats() *protocol.Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := &protocol.Stats{Worker: w.name}
	s.Conns = append(s.Conns, w.session.Stat())
	sis := make([]int, 0, len(w.stages))
	for si := range w.stages {
		sis = append(sis, si)
	}
	sort.Ints(sis)
	for _, si := range sis {
		if h := w.stages[si]; h.down != nil {
			s.Conns = append(s.Conns, h.down.Stat())
		}
	}
	for _, c := range w.dataConns {
		s.Conns = append(s.Conns, c.Stat())
	}
	return s
}

// acceptData serves the worker's data listener: each inbound
// connection names its destination stage in its Hello, waits (inside
// the handshake) until that stage is assigned, then streams batches.
func (w *Worker) acceptData() {
	for {
		c, h, err := w.dataLn.Accept()
		if err != nil {
			return // listener closed: teardown
		}
		w.mu.Lock()
		w.dataConns = append(w.dataConns, c)
		w.mu.Unlock()
		w.wg.Add(1)
		go w.serveData(c, h)
	}
}

// serveData is one inbound data connection: TupleBatch feeds the
// stage, Flush echoes back (the sender's delivery barrier — by the
// time the echo is sent, every prior batch has been fed). It exits on
// EOF (clean shutdown frame) or, through failData, on any error.
func (w *Worker) serveData(c *Conn, hello *protocol.Hello) {
	defer w.wg.Done()
	defer c.Close()
	st := w.waitStage(hello.Stage)
	if st == nil {
		return // tearing down before the stage was assigned
	}
	c.SetName(fmt.Sprintf("data %s→s%d", hello.Worker, hello.Stage))
	if c.Welcome(hello.Stage) != nil {
		return
	}
	// The connection is one sender: its own Port, so on a PKG stage its
	// own load estimate, however many upstream tasks share the wire.
	feed := st.NewPort().FeedBatch
	for {
		// Replay the sender's FeedBatch call sequence: a coalesced frame
		// carries its chunk boundaries, and feeding chunk by chunk keeps
		// shuffle routing and arrival accounting bit-identical to the
		// uncoalesced wire. Each chunk is fed as soon as it is decoded,
		// out of the codec's one-chunk buffer (FeedBatch copies it out
		// before returning), so when a frame fails at a later chunk its
		// earlier chunks are already in the stage — the connection and
		// the interval end all the same.
		m, err := c.RecvBatches(feed)
		switch {
		case err != nil:
			if !errors.Is(err, io.EOF) {
				w.failData(c, err)
			}
			return
		case m.FlushReq != nil:
			if err := c.Send(&protocol.Message{FlushReq: m.FlushReq}); err != nil {
				w.failData(c, err)
				return
			}
		default:
			w.failData(c, fmt.Errorf("unexpected message %s", m.Kind()))
			return
		}
	}
}

// failData latches the first failure of an inbound data connection,
// named, and closes the session so Run stops waiting on the coordinator
// and returns it: the tuples that connection still owed the stage are
// lost, and without this the only trace would be the sender's next flush
// failing with EOF.
func (w *Worker) failData(c *Conn, err error) {
	w.mu.Lock()
	first := w.dataErr == nil && !w.closed // past teardown the cut is the worker's own
	if first {
		w.dataErr = fmt.Errorf("cluster: worker %s: %s: %w", w.name, c.Name(), err)
	}
	w.mu.Unlock()
	if first {
		w.session.Close()
	}
}

// waitStage blocks until stage si is assigned (returning its stage) or
// the worker starts tearing down (returning nil).
func (w *Worker) waitStage(si int) *engine.Stage {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if h, ok := w.stages[si]; ok {
			return h.st
		}
		if w.closed {
			return nil
		}
		w.cond.Wait()
	}
}

// teardown closes the worker's own dialed connections first (releasing
// downstream hosts' inbound loops), then the data plane — the listener
// and every inbound connection, so a peer that is still holding its end
// open (the coordinator's spout edge, when this worker is the one
// giving up) cannot keep Run from returning — then stops the stages,
// strictly after every feeder goroutine has exited, so no FeedBatch
// races a stopping stage.
func (w *Worker) teardown() {
	w.mu.Lock()
	w.closed = true
	stages := make([]*hostedStage, 0, len(w.stages))
	for _, h := range w.stages {
		stages = append(stages, h)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, h := range stages {
		if h.down != nil {
			h.down.Close()
		}
	}
	w.dataLn.Close()
	w.mu.Lock()
	inbound := w.dataConns
	w.mu.Unlock()
	for _, c := range inbound {
		c.Close()
	}
	w.wg.Wait()
	for _, h := range stages {
		h.st.Stop()
	}
	w.session.Close()
}
