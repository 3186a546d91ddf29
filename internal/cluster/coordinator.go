package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// registerTimeout bounds how long Deploy waits for the worker fleet to
// register (and for each deployment step to ack).
const registerTimeout = 30 * time.Second

// workerSess is one registered worker: its session connection and the
// data-plane address its stages accept tuple batches on.
type workerSess struct {
	id       int
	name     string
	conn     *Conn
	dataAddr string
}

// Coordinator drives a distributed topology: it owns the Spec, the
// spout, the per-stage control policies and the interval clock. The
// workers end each interval on their stages with the engine's own
// sequence and ship back the finished rows and backlogs; the
// coordinator records the target stage's row and throttles the spout
// on the backlogs — bit-identical to a single-process run of the same
// Spec.
type Coordinator struct {
	spec   *Spec
	target int
	ln     *Listener

	mu       sync.Mutex
	cond     *sync.Cond
	workers  []*workerSess
	servers  []*control.Server // per stage; nil without policies
	ctlConns []*Conn           // per stage; control sockets, for the byte table
	accErr   error
	acceptWG sync.WaitGroup

	policies [][]control.Policy
	ctls     []*controller.Controller
	onRound  []func(control.Env, *stats.Snapshot)

	placement []int
	capacity  []int64
	backlog   [][]int64 // per stage, as its worker last shipped it
	processed []int64

	spout    *BatchConn
	em       *engine.Emitter
	interval int64
	rec      *metrics.Recorder
}

// NewCoordinator validates and resolves the declaration
// (Spec.Resolve), then opens the coordinator's listener (network "tcp"
// or "unix") and starts accepting worker registrations and control
// connections in the background. An invalid declaration is an error
// before anything listens. Each stage's policies are assembled here
// (StageSpec.BuildPolicies), so the caller can read controllers after
// the run.
func NewCoordinator(spec *Spec, network, addr string) (*Coordinator, error) {
	r, target, err := spec.Resolve(true)
	if err != nil {
		return nil, err
	}
	ln, err := Listen(network, addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{spec: r, target: target, ln: ln, rec: &metrics.Recorder{}}
	c.cond = sync.NewCond(&c.mu)
	n := len(r.Stages)
	c.policies = make([][]control.Policy, n)
	c.ctls = make([]*controller.Controller, n)
	c.onRound = make([]func(control.Env, *stats.Snapshot), n)
	c.servers = make([]*control.Server, n)
	c.ctlConns = make([]*Conn, n)
	for si := range r.Stages {
		c.policies[si], c.ctls[si], _ = r.Stages[si].BuildPolicies()
	}
	c.acceptWG.Add(1)
	go c.accept()
	return c, nil
}

// Addr returns the listener's dialable address — what workers pass as
// their coordinator endpoint.
func (c *Coordinator) Addr() string { return c.ln.Addr() }

// OnRound registers an observer for stage si's completed control
// rounds (reassembled snapshot plus stage context), called on the
// stage's server goroutine. Must be set before Deploy — the server is
// created when the stage's worker dials in.
func (c *Coordinator) OnRound(si int, fn func(control.Env, *stats.Snapshot)) {
	c.mu.Lock()
	c.onRound[si] = fn
	c.mu.Unlock()
}

// accept classifies inbound connections by their Hello role: workers
// register (welcomed with their fleet index), control connections are
// matched to their stage's policy server and started. Exits when the
// listener closes.
func (c *Coordinator) accept() {
	defer c.acceptWG.Done()
	for {
		conn, hello, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		switch hello.Role {
		case "worker":
			c.mu.Lock()
			id := len(c.workers)
			w := &workerSess{id: id, name: hello.Worker, conn: conn, dataAddr: hello.DataAddr}
			conn.SetName(fmt.Sprintf("session %s", hello.Worker))
			if err := conn.Welcome(id); err != nil {
				conn.Close()
				c.mu.Unlock()
				continue
			}
			c.workers = append(c.workers, w)
			c.cond.Broadcast()
			c.mu.Unlock()
		case "control":
			si := hello.Stage
			c.mu.Lock()
			if si < 0 || si >= len(c.policies) || len(c.policies[si]) == 0 || c.servers[si] != nil {
				c.mu.Unlock()
				conn.Close()
				continue
			}
			conn.SetName(fmt.Sprintf("control s%d", si))
			if err := conn.Welcome(si); err != nil {
				conn.Close()
				c.mu.Unlock()
				continue
			}
			srv := control.NewServer(conn, c.policies[si])
			srv.OnRound = c.onRound[si]
			c.servers[si] = srv
			c.ctlConns[si] = conn
			srv.Start()
			c.mu.Unlock()
		default:
			conn.Close()
		}
	}
}

// Deploy waits for nWorkers registrations, places the stages (stage si
// on worker si mod N, pipeline order), ships the assignments — last
// stage first, so every downstream data listener has its stage before
// an upstream host dials it — and opens the spout's data connection to
// stage 0's host. After Deploy the cluster is ready for Run.
func (c *Coordinator) Deploy(nWorkers int) error {
	if nWorkers < 1 {
		return fmt.Errorf("cluster: Deploy needs at least one worker")
	}
	workers, err := c.waitWorkers(nWorkers)
	if err != nil {
		return err
	}
	stages := c.spec.Stages
	c.placement = make([]int, len(stages))
	for si := range stages {
		c.placement[si] = si % nWorkers
	}
	for si := len(stages) - 1; si >= 0; si-- {
		st := &stages[si]
		a := &protocol.StageAssign{
			Stage:     si,
			Name:      st.Name,
			Op:        st.Op,
			Instances: st.Instances,
			Window:    st.Window,
			Algorithm: string(st.Algorithm),
			Capacity:  st.Capacity,
			Target:    st.Target,
			Budget:    c.spec.Budget,
			Control:   len(c.policies[si]) > 0,
		}
		if si+1 < len(stages) {
			a.Downstream = workers[c.placement[si+1]].dataAddr
			a.DownStage = si + 1
		}
		w := workers[c.placement[si]]
		if err := w.conn.Send(&protocol.Message{Assign: a}); err != nil {
			return fmt.Errorf("cluster: assign stage %d to %s: %w", si, w.name, err)
		}
		if err := c.recvAck(w); err != nil {
			return fmt.Errorf("cluster: assign stage %d to %s: %w", si, w.name, err)
		}
	}
	sc, _, err := Dial(c.ln.Network(), workers[c.placement[0]].dataAddr,
		&protocol.Hello{Role: "data", Worker: "coordinator", Stage: 0})
	if err != nil {
		return fmt.Errorf("cluster: dial spout data plane: %w", err)
	}
	sc.SetName("data spout→s0")
	c.spout = NewBatchConn(sc)
	c.em = engine.NewEmitter(c.spout, c.spec.SpoutB, nil, 1, false)

	// The throttle's inputs: per-stage capacity, the model the workers'
	// stages run under, and backlogs, empty until the first harvest.
	c.capacity = make([]int64, len(stages))
	c.backlog = make([][]int64, len(stages))
	c.processed = make([]int64, len(stages))
	for si := range stages {
		c.capacity[si] = stages[si].Model().Capacity
	}
	return nil
}

func (c *Coordinator) waitWorkers(n int) ([]*workerSess, error) {
	deadline := time.Now().Add(registerTimeout)
	timer := time.AfterFunc(registerTimeout, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.workers) < n {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: %d of %d workers registered before timeout", len(c.workers), n)
		}
		c.cond.Wait()
	}
	return append([]*workerSess(nil), c.workers[:n]...), nil
}

func (c *Coordinator) recvAck(w *workerSess) error {
	m, err := w.conn.Recv()
	if err != nil {
		return err
	}
	if m.Ack == nil {
		return fmt.Errorf("expected ack from %s, got %s", w.name, m.Kind())
	}
	return nil
}

// Run drives n intervals.
func (c *Coordinator) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := c.RunInterval(); err != nil {
			return err
		}
	}
	return nil
}

// RunInterval drives one full logical interval over the cluster — the
// engine's RunInterval spelled as a message sequence:
//
//  1. throttle the budget against the backlogs the workers shipped at
//     the last harvest;
//  2. StartInterval on every worker (acked: all stages are open before
//     the first tuple flows);
//  3. emit through the engine's own Emitter into the spout data
//     connection, then flush it (delivery barrier into stage 0);
//  4. CloseStage per stage in pipeline order — each worker closes the
//     stage and flushes its downstream connection before acking, which
//     is the cascading close over sockets;
//  5. HarvestReq per stage in order: the worker ends the stage's
//     interval (engine.EndStage, with the control round against this
//     coordinator's policy server) and ships back the row and backlog;
//     the target stage's row is recorded.
func (c *Coordinator) RunInterval() error {
	workers := c.workers
	emitN := engine.ThrottleBudget(c.spec.Budget, c.spec.MaxPending, c.capacity, c.backlog)
	for _, w := range workers {
		if err := w.conn.Send(&protocol.Message{Start: &protocol.StartInterval{Interval: c.interval, Emit: emitN}}); err != nil {
			return fmt.Errorf("cluster: start interval %d on %s: %w", c.interval, w.name, err)
		}
	}
	for _, w := range workers {
		if err := c.recvAck(w); err != nil {
			return fmt.Errorf("cluster: start interval %d on %s: %w", c.interval, w.name, err)
		}
	}

	if got := c.em.Emit(c.interval, emitN); got < emitN {
		emitN = got // finite source ended early; charge the true emission
	}
	if err := c.spout.Flush(); err != nil {
		return fmt.Errorf("cluster: spout flush: %w", err)
	}

	for si := range c.spec.Stages {
		w := workers[c.placement[si]]
		if err := w.conn.Send(&protocol.Message{Close: &protocol.CloseStage{Stage: si}}); err != nil {
			return fmt.Errorf("cluster: close stage %d: %w", si, err)
		}
		if err := c.recvAck(w); err != nil {
			return fmt.Errorf("cluster: close stage %d: %w", si, err)
		}
	}

	var row metrics.Interval
	for si := range c.spec.Stages {
		w := workers[c.placement[si]]
		if err := w.conn.Send(&protocol.Message{Harvest: &protocol.HarvestReq{Stage: si, Interval: c.interval, Emit: emitN}}); err != nil {
			return fmt.Errorf("cluster: harvest stage %d: %w", si, err)
		}
		m, err := w.conn.Recv()
		if err != nil {
			return fmt.Errorf("cluster: harvest stage %d: %w", si, err)
		}
		hd := m.Harvested
		if hd == nil || hd.Stage != si {
			return fmt.Errorf("cluster: harvest stage %d: unexpected reply %s", si, m.Kind())
		}
		c.backlog[si] = hd.Backlog
		c.processed[si] = hd.Processed
		if si == c.target {
			row = hd.Row
		}
	}
	c.rec.Add(row)
	c.interval++
	if c.spec.Advance != nil {
		c.spec.Advance(c.interval)
	}
	return nil
}

// Recorder exposes the target stage's per-interval metric series —
// the same rows a single-process run's engine.Recorder accumulates.
func (c *Coordinator) Recorder() *metrics.Recorder { return c.rec }

// Controller returns stage si's coordinator-side rebalance controller,
// or nil for planner-less stages.
func (c *Coordinator) Controller(si int) *controller.Controller { return c.ctls[si] }

// Rebalances sums applied plans across every controller-managed stage.
func (c *Coordinator) Rebalances() int {
	n := 0
	for _, ctl := range c.ctls {
		if ctl != nil {
			n += ctl.Rebalances()
		}
	}
	return n
}

// Placement returns the stage → worker index mapping Deploy chose.
func (c *Coordinator) Placement() []int { return append([]int(nil), c.placement...) }

// Processed returns stage si's cumulative arrived-tuple count as of
// the last harvest — the zero-loss account.
func (c *Coordinator) Processed(si int) int64 { return c.processed[si] }

// Shutdown ends the session: Bye to every worker (collecting their
// per-connection byte counters), then closes the control servers, the
// spout and the listener. The returned Stats — one per worker, plus
// one synthesized for the coordinator's own dialed connections — feed
// the shutdown byte table.
func (c *Coordinator) Shutdown() ([]*protocol.Stats, error) {
	var all []*protocol.Stats
	var firstErr error
	// The accept loop registers control connections under mu, and a
	// session cut short has no control round behind it to order them.
	c.mu.Lock()
	ctlConns := append([]*Conn(nil), c.ctlConns...)
	servers := append([]*control.Server(nil), c.servers...)
	c.mu.Unlock()
	// Own connections first: the spout data plane and the per-stage
	// control sockets (counted from the coordinator's side).
	if c.spout != nil {
		own := &protocol.Stats{Worker: "coordinator"}
		own.Conns = append(own.Conns, c.spout.Stat())
		for si, cc := range ctlConns {
			if cc != nil {
				s := cc.Stat()
				s.Name = fmt.Sprintf("control s%d (%s)", si, c.spec.Stages[si].Name)
				own.Conns = append(own.Conns, s)
			}
		}
		all = append(all, own)
		c.spout.Close()
	}
	for _, w := range c.workers {
		if err := w.conn.Send(&protocol.Message{Bye: &protocol.Shutdown{Reason: "run complete"}}); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			w.conn.Close()
			continue
		}
		m, err := w.conn.Recv()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if err == nil && m.ConnStats != nil {
			all = append(all, m.ConnStats)
		}
		w.conn.Close()
	}
	for _, srv := range servers {
		if srv != nil {
			srv.Close()
		}
	}
	c.ln.Close()
	c.acceptWG.Wait()
	return all, firstErr
}

// FormatStats renders the shutdown byte table: one line per
// connection, grouped by owner, codec payload bytes and wire messages
// in each direction (a coalesced frame counts as one message).
func FormatStats(all []*protocol.Stats) string {
	var b []byte
	appendf := func(format string, args ...any) { b = fmt.Appendf(b, format, args...) }
	appendf("connection bytes (codec payload, framing excluded):\n")
	for _, s := range all {
		appendf("  %s:\n", s.Worker)
		for _, cs := range s.Conns {
			appendf("    %-26s sent %10d (%7d msgs)  rcvd %10d (%7d msgs)\n",
				cs.Name, cs.Sent, cs.SentMsgs, cs.Rcvd, cs.RcvdMsgs)
		}
	}
	return string(b)
}
