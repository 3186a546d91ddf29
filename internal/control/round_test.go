package control_test

import (
	"bytes"
	"encoding/binary"
	"maps"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// framedConn is a control.Conn over the socket wire: the framed codec a
// cluster worker and its coordinator speak.
type framedConn struct {
	*protocol.Codec
	c net.Conn
}

func (f framedConn) Close() error { return f.c.Close() }

// closer is a test's end of a round's transport: a control.Conn the
// test also hangs up.
type closer interface {
	control.Conn
	Close() error
}

// newFramedPair returns the two ends of a control round over a
// synchronous in-memory pipe, every message fully serialized.
func newFramedPair() (framedConn, framedConn) {
	a, b := net.Pipe()
	return framedConn{Codec: protocol.NewFramedCodec(a), c: a}, framedConn{Codec: protocol.NewFramedCodec(b), c: b}
}

// serve answers rounds on conn with control.Answer on a goroutine of
// its own, as a controller across a socket does, until the transport
// closes or the peer breaks the protocol; it hangs up on its way out,
// so the peer's round ends with an error instead of waiting for a reply
// that will not come. stop closes conn and waits for the goroutine, so
// policy state is safe to read afterwards.
func serve(conn closer, policies []control.Policy) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			reply, err := control.Answer(policies, m)
			if err != nil || conn.Send(reply) != nil {
				return
			}
		}
	}()
	return func() {
		conn.Close()
		<-done
	}
}

// framedLoop wires stage si's control loop over the framed pipe — an
// executor, and the policies answering on a goroutine of their own —
// registers it with the engine and returns its teardown.
func framedLoop(e *engine.Engine, si int, policies []control.Policy) (stop func()) {
	agent, ctrl := newFramedPair()
	x := control.NewExecutor(e, si, agent)
	stopServe := serve(ctrl, policies)
	e.AddSnapshotHook(si, x.Hook())
	return func() {
		agent.Close()
		stopServe()
	}
}

// localLoop wires stage si's control loop in process (control.NewLoop)
// and registers it with the engine; it has nothing to tear down.
func localLoop(e *engine.Engine, si int, policies []control.Policy) (stop func()) {
	e.AddSnapshotHook(si, control.NewLoop(e, si, policies).Hook())
	return func() {}
}

// eagerController plans on the slightest imbalance: every round past
// the warm-up guard is a commanded round.
func eagerController() *controller.Controller {
	ctl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.0005, TableMax: 3000, Beta: 1.5})
	ctl.MinKeys = 32
	return ctl
}

// TestRoundEquivalenceEveryTransport pins the round's report on
// every path a round can take — the direct hook (no protocol at all),
// the local call (the report is the snapshot, by reference) and the
// framed socket wire — with a plan in every round: identical
// series, identical snapshots on the deciding side round by round,
// identical routing tables and plan counts.
func TestRoundEquivalenceEveryTransport(t *testing.T) {
	const intervals = 16
	type outcome struct {
		e     *engine.Engine
		st    *engine.Stage
		ctl   *controller.Controller
		snaps []*stats.Snapshot // what the policy decided on, copied
		last  []*stats.Snapshot
	}
	run := func(wire func(*engine.Engine, int, []control.Policy) func()) outcome {
		e, st := mkEngine(211)
		o := outcome{e: e, st: st, ctl: eagerController(), last: lastSnapshots(e)}
		if wire == nil {
			e.AddSnapshotHook(0, func(e *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
				o.snaps = append(o.snaps, snap.Clone())
				return o.ctl.Maybe(e.Stages[si], snap)
			})
			e.Run(intervals)
			return o
		}
		seen := &capturePolicy{inner: o.ctl}
		stop := wire(e, 0, []control.Policy{seen})
		e.Run(intervals)
		stop()
		o.snaps = seen.snaps
		return o
	}
	direct := run(nil)
	defer direct.e.Stop()
	if got := direct.ctl.Rebalances(); got < intervals-2 {
		t.Fatalf("the direct run planned in %d of %d rounds; the pin needs a plan every round", got, intervals)
	}
	for name, wire := range map[string]func(*engine.Engine, int, []control.Policy) func(){
		"local":       localLoop,
		"framed pipe": framedLoop,
	} {
		o := run(wire)
		sameSeries(t, name, direct.e.Recorder.Series, o.e.Recorder.Series)
		sameSnapshots(t, name+" last", direct.last, o.last)
		sameSnapshots(t, name+" decided-on", direct.snaps, o.snaps)
		sameTables(t, name, direct.st, o.st)
		if direct.ctl.Rebalances() != o.ctl.Rebalances() {
			t.Fatalf("%s: %d plans, direct %d", name, o.ctl.Rebalances(), direct.ctl.Rebalances())
		}
		o.e.Stop()
	}
}

// countingPolicy counts the rounds that reach a policy. It sizes the
// snapshot's load vector, as controller.Controller does every round.
type countingPolicy struct{ rounds atomic.Int32 }

func (p *countingPolicy) Decide(_ control.Env, snap *stats.Snapshot) []control.Command {
	p.rounds.Add(1)
	snap.Loads()
	return nil
}

// TestHostileMergedReportEndsRound sends the controller side reports it
// must not trust — a destination past the stage's instances,
// a negative one, entries out of canonical order, an instance count a
// load vector must not be sized by, an entry count the frame cannot
// hold — to control.Answer and over the framed wire. Answer returns an
// error for each, and over the wire the round ends with an error on the
// sender's side: no policy sees the snapshot, nothing sizes or indexes a
// load vector by it, the controller side does not panic and nobody
// waits forever.
func TestHostileMergedReportEndsRound(t *testing.T) {
	valid := func() *protocol.LoadReport {
		return &protocol.LoadReport{
			Interval: 3, Tasks: 2, Routable: true,
			Keys: []stats.KeyStat{
				{Key: 1, Cost: 9, Dest: 1, Hash: 1},
				{Key: 2, Cost: 4, Dest: 0, Hash: 0},
				{Key: 3, Cost: 4, Dest: 1, Hash: 0},
			},
		}
	}
	hostile := map[string]func(*protocol.LoadReport){
		"destination past the instances": func(r *protocol.LoadReport) { r.Keys[1].Dest = 2 },
		"negative destination":           func(r *protocol.LoadReport) { r.Keys[2].Dest = -1 },
		"out of order":                   func(r *protocol.LoadReport) { r.Keys[0], r.Keys[2] = r.Keys[2], r.Keys[0] },
		"no instances":                   func(r *protocol.LoadReport) { r.Tasks = 0 },
		"instances past MaxTasks":        func(r *protocol.LoadReport) { r.Tasks = 1 << 40 },
	}
	// The valid report is served: the cases below fail on their mutation
	// alone.
	agent, ctrl := newFramedPair()
	pol := &countingPolicy{}
	stop := serve(ctrl, []control.Policy{pol})
	if err := agent.Send(&protocol.Message{Report: valid()}); err != nil {
		t.Fatal(err)
	}
	if m, err := agent.Recv(); err != nil || m.Commands == nil || len(m.Commands.List) != 0 {
		t.Fatalf("valid round answered %v, %v; want an empty Commands", m, err)
	}
	agent.Close()
	stop()
	if pol.rounds.Load() != 1 {
		t.Fatalf("valid round reached %d policies", pol.rounds.Load())
	}

	for name, mutate := range hostile {
		pol := &countingPolicy{}
		r := valid()
		mutate(r)
		if m, err := control.Answer([]control.Policy{pol}, &protocol.Message{Report: r}); err == nil {
			t.Fatalf("%s: Answer replied %s", name, m.Kind())
		}
		agent, ctrl := newFramedPair()
		stop := serve(ctrl, []control.Policy{pol})
		// The send itself may fail once the controller side has hung up.
		_ = agent.Send(&protocol.Message{Report: r})
		if m, err := agent.Recv(); err == nil {
			t.Fatalf("%s: round answered with %s", name, m.Kind())
		}
		stop()
		agent.Close()
		if pol.rounds.Load() != 0 {
			t.Fatalf("%s: a policy saw the snapshot", name)
		}
	}

	// A count the frame cannot hold never becomes a report: raw bytes on
	// the wire (kind 3 is a report; interval, flags, then the count).
	a, b := net.Pipe()
	pol = &countingPolicy{}
	stop = serve(framedConn{Codec: protocol.NewFramedCodec(b), c: b}, []control.Policy{pol})
	frame := []byte{3, 4, 0, 0xff, 0xff, 0x7f}
	go a.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...))
	if _, err := a.Read(make([]byte, 1)); err == nil {
		t.Fatal("a report with a count past its frame was answered")
	}
	stop()
	a.Close()
	if pol.rounds.Load() != 0 {
		t.Fatal("a policy saw a report with a count past its frame")
	}
}

// TestSecondReportInsideRoundEndsIt: a round is one Report and one
// Commands, and anything else in either place ends it, over the framed
// wire. Something other than a Report where the round's report belongs
// — a Commands of its own, a session Ack — is an error from
// control.Answer, and over the wire the peer gets hung up on: its next
// Recv fails, nobody waits for a reply that will not come. The executor
// holds the same line from its side: a Report, a session message, a
// Commands answering another interval's report, or a hang-up where the
// round's Commands belongs ends its round as a hold, with the break
// latched in Err.
func TestSecondReportInsideRoundEndsIt(t *testing.T) {
	report := func() *protocol.Message {
		return &protocol.Message{Report: &protocol.LoadReport{
			Interval: 1, Tasks: 2, Routable: true, Resizable: true,
			Keys: []stats.KeyStat{{Key: 1, Cost: 9, Dest: 1, Hash: 1}},
		}}
	}
	strays := map[string]*protocol.Message{
		"report":   report(),
		"ack":      {Ack: &protocol.Ack{TaskID: 0, Interval: 1}},
		"start":    {Start: &protocol.StartInterval{Interval: 2}},
		"commands": {Commands: &protocol.Commands{Interval: 1}},
		// A scale-out commanded for interval 0, answering a report of 1.
		"stale commands": {Commands: &protocol.Commands{Interval: 0, List: []protocol.Command{
			{Resize: &protocol.Resize{Delta: 1}},
		}}},
		"hang-up": nil, // the controller side closes instead of answering
	}
	for sname, stray := range strays {
		if stray == nil || stray.Report != nil {
			continue // a Report is what the controller side expects
		}
		pol := &countingPolicy{}
		if m, err := control.Answer([]control.Policy{pol}, stray); err == nil {
			t.Fatalf("Answer replied to a %s in the report's place with %s", sname, m.Kind())
		}
		agent, ctrl := newFramedPair()
		stop := serve(ctrl, []control.Policy{pol})
		_ = agent.Send(stray) // may fail once the controller side has hung up
		if m, err := agent.Recv(); err == nil {
			t.Fatalf("a %s in the report's place was answered with %s", sname, m.Kind())
		}
		stop()
		agent.Close()
		if pol.rounds.Load() != 0 {
			t.Fatalf("a %s in the report's place reached a policy", sname)
		}
	}

	for sname, stray := range strays {
		if stray != nil && stray.Commands != nil && stray.Commands.Interval == 1 {
			continue // the reply itself
		}
		e, st := mkEngine(5)
		agent, ctrl := newFramedPair()
		x := control.NewExecutor(e, 0, agent)
		returned := make(chan *engine.Rebalance, 1)
		go func() { returned <- x.RunRound(&stats.Snapshot{Interval: 1, ND: 8}) }()
		if m, err := ctrl.Recv(); err != nil || m.Report == nil {
			t.Fatalf("the executor opened its round with %v, %v", m, err)
		}
		if stray == nil {
			ctrl.Close()
		} else if err := ctrl.Send(stray); err != nil {
			t.Fatal(err)
		}
		if reb := <-returned; reb != nil || st.Instances() != 8 {
			t.Fatalf("a round answered by a %s applied %+v", sname, reb)
		}
		if x.Err() == nil {
			t.Fatalf("a round answered by a %s left no error", sname)
		}
		ctrl.Close()
		agent.Close()
		e.Stop()
	}
}

// countingConn counts the messages sent through a Conn, by kind.
type countingConn struct {
	closer
	mu   sync.Mutex
	sent map[string]int
}

func (c *countingConn) Send(m *protocol.Message) error {
	c.mu.Lock()
	c.sent[m.Kind()]++
	c.mu.Unlock()
	return c.closer.Send(m)
}

func (c *countingConn) counts() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.sent)
}

// oneOfEach commands a plan, a scale-out and a split in its first round
// and holds afterwards.
type oneOfEach struct{ rounds int }

func (p *oneOfEach) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	p.rounds++
	if p.rounds > 1 || len(snap.Keys) < 2 {
		return nil
	}
	moved := snap.Keys[1]
	dst := (moved.Dest + 1) % env.Tasks
	plan := &balance.Plan{Table: route.NewTable(), Moved: []tuple.Key{moved.Key}, MoveDest: map[tuple.Key]int{moved.Key: dst}}
	plan.Table.Put(moved.Key, dst)
	return []control.Command{
		control.Rebalance{Plan: plan},
		control.ScaleOut{},
		control.SetSplit{Set: []control.SplitSpec{{Key: snap.Keys[0].Key, Fan: 2}}},
	}
}

// TestRoundIsOneReportAndOneCommands pins the round's shape on both
// transports: a round carrying a plan, a resize and a split, and a held
// round, each reach the policies once and apply one reply. On the wire
// each is exactly one Report from the stage side and one Commands from
// the controller side — one frame each way.
func TestRoundIsOneReportAndOneCommands(t *testing.T) {
	for _, name := range []string{"local", "framed pipe"} {
		e, st := mkEngine(17)
		pol := &oneOfEach{}
		var agent, ctrl *countingConn // the framed pipe's two ends
		if name == "local" {
			e.AddSnapshotHook(0, control.NewLoop(e, 0, []control.Policy{pol}).Hook())
		} else {
			a, c := newFramedPair()
			agent = &countingConn{closer: a, sent: map[string]int{}}
			ctrl = &countingConn{closer: c, sent: map[string]int{}}
			defer serve(ctrl, []control.Policy{pol})()
			defer agent.Close()
			e.AddSnapshotHook(0, control.NewExecutor(e, 0, agent).Hook())
		}

		for round := 1; round <= 2; round++ {
			e.Run(1)
			if pol.rounds != round {
				t.Fatalf("%s, round %d: the policies decided %d times", name, round, pol.rounds)
			}
			if agent == nil {
				continue
			}
			if got, want := agent.counts(), map[string]int{"report": round}; !maps.Equal(got, want) {
				t.Fatalf("%s, round %d: the stage side sent %v, want %v", name, round, got, want)
			}
			if got, want := ctrl.counts(), map[string]int{"commands": round}; !maps.Equal(got, want) {
				t.Fatalf("%s, round %d: the controller side sent %v, want %v", name, round, got, want)
			}
			f := agent.closer.(framedConn)
			if sent, rcvd := f.SentMsgs(), f.RecvMsgs(); sent != int64(round) || rcvd != int64(round) {
				t.Fatalf("%s, round %d: the stage side's wire carried %d frames out and %d in", name, round, sent, rcvd)
			}
		}
		// The first round applied all three commands; the second held.
		series := e.Recorder.Series
		if !series[0].Rebalanced || series[0].ScaleOuts != 1 || series[1].Rebalanced || series[1].ScaleOuts != 0 {
			t.Fatalf("%s: series %+v, want the first round commanded and the second held", name, series)
		}
		if st.Instances() != 9 || len(st.Splits()) != 1 {
			t.Fatalf("%s: %d instances and split set %v after the commanded round", name, st.Instances(), st.Splits())
		}
		e.Stop()
	}
}

// callerPolicy counts its rounds in a plain field and records whether
// every one of them was decided on the goroutine of the test that
// runs the engine.
type callerPolicy struct {
	rounds    int
	offCaller int
}

func (p *callerPolicy) Decide(control.Env, *stats.Snapshot) []control.Command {
	p.rounds++
	buf := make([]byte, 1<<16)
	if !bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("control_test.TestLocalRoundIsACall(")) {
		p.offCaller++
	}
	return nil
}

// TestLocalRoundIsACall pins the in-process loop as a function call:
// control.NewLoop and the intervals it serves start no goroutine beyond
// the engine's tasks, every policy decides on the goroutine that runs
// the engine, and policy state is read between Run calls with nothing
// closed.
func TestLocalRoundIsACall(t *testing.T) {
	e, _ := mkEngine(29)
	defer e.Stop()
	before := runtime.NumGoroutine()
	ctl, pol := eagerController(), &callerPolicy{}
	localLoop(e, 0, []control.Policy{ctl, pol})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewLoop started %d goroutines", n-before)
	}
	for run, want := range []int{4, 8} {
		e.Run(4)
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("run %d: %d goroutines beyond the engine's", run, n-before)
		}
		if pol.rounds != want || pol.offCaller != 0 {
			t.Fatalf("run %d: %d rounds, %d decided off the caller's goroutine; want %d, 0", run, pol.rounds, pol.offCaller, want)
		}
	}
	if ctl.Rebalances() == 0 {
		t.Fatal("the eager controller never planned")
	}
}

// TestSteadyRoundAllocatesNoPopulation runs the interval's whole control
// path at the benchmark's shape — 11k keys re-drawn per interval over 8
// instances, a plan every round — through feed, close (harvest and
// merge), report, plan and application, and requires that a steady
// interval allocates nothing sized by the population: the merged run,
// the report and the planner state are all recycled.
func TestSteadyRoundAllocatesNoPopulation(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	const nd, keys, domain = 8, 11000, 12500
	// A stateless operator: the stores' own recycling is pinned in
	// internal/state, and windowed state would only add its churn here.
	st := engine.NewStage("op", nd, func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }, 1,
		engine.NewAssignmentRouter(topology.NewAssignment(nd)))
	e := engine.NewBatch(engine.BatchSpout(func() tuple.Tuple { return tuple.New(0, nil) }), engine.DefaultConfig(), st)
	defer e.Stop()
	// The benchmark's controller: hot keys keep every interval past θmax,
	// while the plans — and the routing table they accumulate — stay small
	// next to the population, as they are there.
	ctl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	hook := control.NewLoop(e, 0, []control.Policy{ctl}).Hook()
	// The test calls the hook itself where EndStage would; registering
	// it is what makes the stage observe per-key statistics.
	e.AddSnapshotHook(0, hook)

	batch := make([]tuple.Tuple, keys*2)
	var seq uint64
	var interval int64
	var snapKeys int
	step := func() {
		for i := range batch {
			seq += 0x9e3779b97f4a7c15
			// Every key of the small domain shows up during the warm-up,
			// so the trackers stop growing; a tenth of the tuples go to
			// four keys that change every interval, so every interval is
			// out of balance in a new place.
			k := tuple.Key((seq >> 20) % domain)
			if i < len(batch)/10 {
				k = tuple.Key((uint64(interval)*7919 + uint64(i%4)*977) % domain)
			}
			batch[i] = tuple.New(k, nil)
		}
		for lo := 0; lo < len(batch); lo += 1024 { // the emitter's chunk
			st.FeedBatch(batch[lo:min(lo+1024, len(batch))])
		}
		st.Barrier()
		snap := st.EndInterval(interval)
		snapKeys = len(snap.Keys)
		hook(e, 0, snap)
		interval++
	}
	for i := 0; i < 12; i++ { // buffers, tables and the planner pool reach their size
		step()
	}
	before := ctl.Rebalances()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	if got := ctl.Rebalances() - before; got != rounds {
		t.Fatalf("%d of %d measured rounds were commanded", got, rounds)
	}
	perRound := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
	population := float64(snapKeys) * float64(unsafe.Sizeof(stats.KeyStat{}))
	t.Logf("%.0f B per interval; the snapshot is %d keys = %.0f B", perRound, snapKeys, population)
	if snapKeys < keys/2 {
		t.Fatalf("only %d keys per snapshot", snapKeys)
	}
	if perRound > population/4 {
		t.Fatalf("a steady commanded interval allocates %.0f B, the snapshot alone is %.0f B", perRound, population)
	}
}
