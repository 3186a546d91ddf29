package cluster

import (
	"cmp"
	"errors"
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
	acceptWG sync.WaitGroup

	policies [][]control.Policy
	ctls     []*controller.Controller
	// keys holds each controlled stage's last two reported runs,
	// alternating by interval: the snapshot a policy is handed lives
	// until the stage's round after next, however many stages share the
	// session codec that decoded it.
	keys [][2][]stats.KeyStat

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
// or "unix") and starts accepting worker registrations in the
// background. An invalid declaration is an error
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
	c.keys = make([][2][]stats.KeyStat, n)
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

// accept registers workers, welcoming each with its fleet index; any
// other Hello role is refused. Exits when the listener closes.
func (c *Coordinator) accept() {
	defer c.acceptWG.Done()
	for {
		conn, hello, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if hello.Role != "worker" {
			conn.Close()
			continue
		}
		c.mu.Lock()
		id := len(c.workers)
		w := &workerSess{name: hello.Worker, conn: conn, dataAddr: hello.DataAddr}
		conn.SetName(fmt.Sprintf("session %s", hello.Worker))
		if err := conn.Welcome(id); err != nil {
			conn.Close()
			c.mu.Unlock()
			continue
		}
		c.workers = append(c.workers, w)
		c.cond.Broadcast()
		c.mu.Unlock()
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

// recv reads w's next session message; a Shutdown carries its error.
func (c *Coordinator) recv(w *workerSess) (*protocol.Message, error) {
	m, err := w.conn.Recv()
	if err == nil && m.Bye != nil {
		return nil, fmt.Errorf("worker %s ended its session: %s", w.name, m.Bye.Reason)
	}
	return m, err
}

func (c *Coordinator) recvAck(w *workerSess) error {
	m, err := c.recv(w)
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
//     interval (engine.EndStage) and answers with a HarvestDone
//     carrying the row and backlog; when this coordinator holds the
//     stage's policies, the stage's control round runs on the session
//     in between (round). The target stage's row is recorded.
//
// Any break of that sequence ends the interval with an error naming the
// worker, the stage and the interval.
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
		return fmt.Errorf("cluster: interval %d: spout flush: %w", c.interval, err)
	}

	for si := range c.spec.Stages {
		w := workers[c.placement[si]]
		err := w.conn.Send(&protocol.Message{Close: &protocol.CloseStage{Stage: si}})
		if err == nil {
			err = c.recvAck(w)
		}
		if err != nil {
			return c.stageErr(w, si, "close", err)
		}
	}

	var row metrics.Interval
	for si := range c.spec.Stages {
		w := workers[c.placement[si]]
		err := w.conn.Send(&protocol.Message{Harvest: &protocol.HarvestReq{Stage: si, Interval: c.interval, Emit: emitN}})
		var m *protocol.Message
		if err == nil {
			m, err = c.recv(w)
		}
		if err == nil && len(c.policies[si]) > 0 {
			m, err = c.round(w, si, m)
		}
		if err == nil && (m.Harvested == nil || m.Harvested.Stage != si) {
			err = fmt.Errorf("unexpected reply %s", m.Kind())
		}
		if err != nil {
			return c.stageErr(w, si, "harvest", err)
		}
		hd := m.Harvested
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

// stageErr names a failed step of stage si's interval: the worker, the
// stage, the interval and the step.
func (c *Coordinator) stageErr(w *workerSess, si int, step string, err error) error {
	return fmt.Errorf("cluster: worker %s, stage %d, interval %d: %s: %w", w.name, si, c.interval, step, err)
}

// round answers stage si's control round, whose report m opens, on w's
// session, and returns the message after the reply — the stage's
// HarvestDone, if the worker keeps step. The report is outside input:
// it is accepted only for the interval being harvested, naming the
// instance count the stage last shipped (its backlog's length; the
// declared instances before the first harvest), and past
// control.Answer's CheckMerged; a second report, or anything else in
// its place, is an error.
func (c *Coordinator) round(w *workerSess, si int, m *protocol.Message) (*protocol.Message, error) {
	r := m.Report
	if r == nil {
		return nil, fmt.Errorf("%s where the control round's report belongs", m.Kind())
	}
	tasks := len(c.backlog[si])
	if tasks == 0 {
		tasks = c.spec.Stages[si].Instances
	}
	if r.Interval != c.interval {
		return nil, fmt.Errorf("a report of interval %d", r.Interval)
	}
	if r.Tasks != tasks {
		return nil, fmt.Errorf("a report naming %d instances, the stage runs %d", r.Tasks, tasks)
	}
	// The codec reuses its buffer for the session's next report, which
	// may be another stage's: the stage's own pair keeps the run.
	buf := &c.keys[si][c.interval&1]
	*buf = append((*buf)[:0], r.Keys...)
	r.Keys = *buf
	reply, err := control.Answer(c.policies[si], m)
	if err != nil {
		return nil, err
	}
	if err := w.conn.Send(reply); err != nil {
		return nil, err
	}
	if m, err = c.recv(w); err == nil && m.Report != nil {
		err = errors.New("a second report in one round")
	}
	return m, err
}

// Recorder exposes the target stage's per-interval metric series —
// the same rows a single-process run's engine.Recorder accumulates.
func (c *Coordinator) Recorder() *metrics.Recorder { return c.rec }

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

// Shutdown ends the session: it stops accepting, closes the spout,
// then says Bye to every worker, collecting their per-connection byte
// counters. The returned Stats — the coordinator's own ends first (the
// spout and every worker session), then one per worker — feed the
// shutdown byte table.
func (c *Coordinator) Shutdown() ([]*protocol.Stats, error) {
	c.ln.Close()
	c.acceptWG.Wait() // c.workers is final from here
	own := &protocol.Stats{Worker: "coordinator"}
	all := []*protocol.Stats{own}
	var firstErr error
	if c.spout != nil {
		own.Conns = append(own.Conns, c.spout.Stat())
		c.spout.Close()
	}
	for _, w := range c.workers {
		err := w.conn.Send(&protocol.Message{Bye: &protocol.Shutdown{Reason: "run complete"}})
		var m *protocol.Message
		if err == nil {
			m, err = w.conn.Recv()
		}
		if err == nil && m.ConnStats != nil {
			all = append(all, m.ConnStats)
		}
		firstErr = cmp.Or(firstErr, err)
		own.Conns = append(own.Conns, w.conn.Stat())
		w.conn.Close()
	}
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
