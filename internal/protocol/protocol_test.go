package protocol

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func TestSendRejectsEmpty(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := NewFramedCodec(a).Send(&Message{}); err == nil {
		t.Fatal("empty message accepted")
	}
}

// TestCodecRoundTripAllKinds runs a connection's life on two fresh codecs
// over a pipe: the handshake in both directions from the first byte, with
// no mode to switch afterwards, then the control-plane round on the same
// stream. Every message must arrive whole and in order.
func TestCodecRoundTripAllKinds(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewFramedCodec(a), NewFramedCodec(b)

	recvWant := func(c *Codec, want *Message) {
		t.Helper()
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Kind(), err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("%s altered:\n sent %#v\n got  %#v", want.Kind(), want, got)
		}
	}
	sendAsync := func(c *Codec, conn net.Conn, msgs ...*Message) *sync.WaitGroup {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range msgs {
				if err := c.Send(m); err != nil {
					t.Errorf("send %s: %v", m.Kind(), err)
					conn.Close() // fail the receiver instead of leaving it waiting
					return
				}
			}
		}()
		return &wg
	}

	hello := &Message{Hello: &Hello{Proto: 6, Role: "control", Worker: "w0", Stage: 1, DataAddr: "127.0.0.1:9"}}
	welcome := &Message{Welcome: &Welcome{Proto: 6, ID: 2}}
	wg := sendAsync(ca, a, hello)
	recvWant(cb, hello)
	wg.Wait()
	wg = sendAsync(cb, b, welcome)
	recvWant(ca, welcome)
	wg.Wait()

	round := []*Message{
		{Report: &LoadReport{Interval: 7, Tasks: 3, Keys: []stats.KeyStat{{Key: 1, Cost: 5, Freq: 3, Mem: 9, Dest: 2}}}},
		{Commands: &Commands{Interval: 7, List: []Command{
			{Plan: &PlanAnnounce{Table: []RouteEntry{{Key: 1, Dest: 3}}, Moved: []RouteEntry{{Key: 1, Dest: 3}}}},
			{Resize: &Resize{Delta: 1}},
			{Split: &SplitAnnounce{Set: []SplitEntry{{Key: 1, Fan: 2}}}},
		}}},
		{Commands: &Commands{Interval: 8}},
	}
	wg = sendAsync(ca, a, round...)
	for _, want := range round {
		recvWant(cb, want)
	}
	wg.Wait()
}

// TestFullProtocolExchange drives the complete Fig. 5 round between a
// controller goroutine and two task goroutines over real pipes: the
// tasks report, the controller plans with the real Mixed planner and
// answers each task with one Commands carrying the plan, and the tasks
// hand the moved keys' state to each other inside their host, as a
// sealed stage does. Each task's wire carries exactly its report out and
// the reply in.
func TestFullProtocolExchange(t *testing.T) {
	const interval = 3
	type taskState struct {
		id    int
		stats map[tuple.Key]stats.KeyStat
		owned map[tuple.Key][]byte
	}
	type handoff struct {
		key   tuple.Key
		state []byte
	}
	// Task 0 is overloaded with five medium keys; task 1 nearly idle.
	t0stats := map[tuple.Key]stats.KeyStat{}
	t0owned := map[tuple.Key][]byte{}
	for k := tuple.Key(10); k < 15; k++ {
		t0stats[k] = stats.KeyStat{Cost: 20, Freq: 20, Mem: 2}
		t0owned[k] = []byte("state-" + string(rune('a'+k-10)))
	}
	tasks := []*taskState{
		{id: 0, stats: t0stats, owned: t0owned},
		{id: 1, stats: map[tuple.Key]stats.KeyStat{
			15: {Cost: 20, Freq: 20, Mem: 2},
		}, owned: map[tuple.Key][]byte{15: []byte("x")}},
	}

	// Pipes: controller ↔ each task. State moves 0 → 1 in process.
	c0, t0 := net.Pipe()
	c1, t1 := net.Pipe()
	defer func() {
		for _, c := range []net.Conn{c0, t0, c1, t1} {
			c.Close()
		}
	}()
	moves := make(chan handoff, len(t0owned))

	var wg sync.WaitGroup
	errs := make(chan error, 8)

	runTask := func(ts *taskState, conn net.Conn) {
		defer wg.Done()
		c := NewFramedCodec(conn)
		// Step 1: report. Each toy task is its own reporter, so its run
		// is its share of the stage: its keys, destined to itself.
		rep := &LoadReport{Interval: interval, Tasks: 2}
		for k, ks := range ts.stats {
			ks.Key, ks.Dest, ks.Hash = k, ts.id, ts.id // hash home = current owner in this toy setup
			rep.Keys = append(rep.Keys, ks)
		}
		stats.SortByCostDesc(rep.Keys)
		if err := c.Send(&Message{Report: rep}); err != nil {
			errs <- err
			return
		}
		// Steps 3–4: the round's one reply.
		m, err := c.Recv()
		if err != nil {
			errs <- err
			return
		}
		if m.Commands == nil || len(m.Commands.List) != 1 || m.Commands.List[0].Plan == nil {
			errs <- errKind{m.Kind()}
			return
		}
		// Steps 5–6: the source hands each moved key's state over, the
		// destination takes it, in plan order.
		for _, mv := range m.Commands.List[0].Plan.Moved {
			if payload, ok := ts.owned[mv.Key]; ok && mv.Dest != ts.id {
				moves <- handoff{mv.Key, payload}
				delete(ts.owned, mv.Key)
			}
			if mv.Dest == ts.id {
				h := <-moves
				ts.owned[h.key] = h.state
			}
		}
		if c.SentMsgs() != 1 || c.RecvMsgs() != 1 {
			errs <- fmt.Errorf("task %d: the round took %d messages out and %d in", ts.id, c.SentMsgs(), c.RecvMsgs())
		}
	}

	wg.Add(2)
	go runTask(tasks[0], t0)
	go runTask(tasks[1], t1)

	// Controller.
	cc := []*Codec{NewFramedCodec(c0), NewFramedCodec(c1)}
	snap := &stats.Snapshot{Interval: interval, ND: 2}
	for _, c := range cc {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Report.CheckMerged(); err != nil {
			t.Fatal(err)
		}
		snap.Keys = append(snap.Keys, m.Report.Keys...)
	}
	stats.SortByCostDesc(snap.Keys)
	plan := balance.Mixed{}.Plan(snap, balance.Config{ThetaMax: 0.2, Beta: 1.5})
	if len(plan.Moved) == 0 {
		t.Fatal("planner did not move the hot key")
	}
	ann := AnnounceFromPlan(plan)
	for _, c := range cc {
		if err := c.Send(&Message{Commands: &Commands{Interval: interval, List: []Command{{Plan: ann}}}}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every moved key's state must now live at its new destination and
	// nowhere else.
	for _, mv := range ann.Moved {
		if mv.Dest != 1 {
			t.Fatalf("toy plan moved key %d to %d, expected everything to task 1", mv.Key, mv.Dest)
		}
		if len(tasks[1].owned[mv.Key]) == 0 {
			t.Fatalf("state for key %d did not arrive", mv.Key)
		}
		if _, still := tasks[0].owned[mv.Key]; still {
			t.Fatalf("state for key %d not removed from source", mv.Key)
		}
	}
}

type errKind struct{ kind string }

func (e errKind) Error() string { return "unexpected message kind " + e.kind }
