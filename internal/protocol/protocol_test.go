package protocol

import (
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
		{Plan: &PlanAnnounce{Interval: 7, Table: []RouteEntry{{Key: 1, Dest: 3}}, Moved: []RouteEntry{{Key: 1, Dest: 3}}}},
		{State: &StateTransfer{Key: 1, From: 0, To: 3, Size: 9, Payload: []byte("window")}},
		{Ack: &Ack{TaskID: 3, Interval: 7}},
		{Resume: &Resume{Interval: 7}},
	}
	wg = sendAsync(ca, a, round...)
	for _, want := range round {
		recvWant(cb, want)
	}
	wg.Wait()
}

// TestFullProtocolExchange drives the complete Fig. 5 sequence between
// a controller goroutine and two task goroutines over real pipes: the
// tasks report, the controller plans with the real Mixed planner,
// announces, the source task ships state, acks flow, resume closes the
// round.
func TestFullProtocolExchange(t *testing.T) {
	const interval = 3
	type taskState struct {
		id     int
		stats  map[tuple.Key]stats.KeyStat
		owned  map[tuple.Key][]byte
		paused map[tuple.Key]bool
	}
	// Task 0 is overloaded with five medium keys; task 1 nearly idle.
	t0stats := map[tuple.Key]stats.KeyStat{}
	t0owned := map[tuple.Key][]byte{}
	for k := tuple.Key(10); k < 15; k++ {
		t0stats[k] = stats.KeyStat{Cost: 20, Freq: 20, Mem: 2}
		t0owned[k] = []byte("state-" + string(rune('a'+k-10)))
	}
	tasks := []*taskState{
		{id: 0, stats: t0stats, owned: t0owned, paused: map[tuple.Key]bool{}},
		{id: 1, stats: map[tuple.Key]stats.KeyStat{
			15: {Cost: 20, Freq: 20, Mem: 2},
		}, owned: map[tuple.Key][]byte{15: []byte("x")}, paused: map[tuple.Key]bool{}},
	}

	// Pipes: controller ↔ each task, plus a task0 → task1 data channel.
	c0, t0 := net.Pipe()
	c1, t1 := net.Pipe()
	d01a, d01b := net.Pipe()
	defer func() {
		for _, c := range []net.Conn{c0, t0, c1, t1, d01a, d01b} {
			c.Close()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 8)

	// Task goroutines.
	runTask := func(ts *taskState, conn net.Conn, peerSend, peerRecv *Codec) {
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
		// Steps 3–4: receive plan, pause moved keys.
		m, err := c.Recv()
		if err != nil {
			errs <- err
			return
		}
		for _, mv := range m.Plan.Moved {
			ts.paused[mv.Key] = true
			// Step 5: ship state we own that must leave.
			if payload, ok := ts.owned[mv.Key]; ok && mv.Dest != ts.id && peerSend != nil {
				err := peerSend.Send(&Message{State: &StateTransfer{
					Key: mv.Key, From: ts.id, To: mv.Dest,
					Size: int64(len(payload)), Payload: payload,
				}})
				if err != nil {
					errs <- err
					return
				}
				delete(ts.owned, mv.Key)
			}
			// Receive state arriving for us.
			if mv.Dest == ts.id && peerRecv != nil {
				sm, err := peerRecv.Recv()
				if err != nil {
					errs <- err
					return
				}
				// A received payload aliases the codec's frame buffer.
				ts.owned[sm.State.Key] = append([]byte(nil), sm.State.Payload...)
			}
		}
		// Step 6: ack.
		if err := c.Send(&Message{Ack: &Ack{TaskID: ts.id, Interval: interval}}); err != nil {
			errs <- err
			return
		}
		// Step 7: resume.
		m, err = c.Recv()
		if err != nil {
			errs <- err
			return
		}
		if m.Kind() != "resume" {
			errs <- errKind{m.Kind()}
			return
		}
		ts.paused = map[tuple.Key]bool{}
	}

	wg.Add(2)
	go runTask(tasks[0], t0, NewFramedCodec(d01a), nil)
	go runTask(tasks[1], t1, nil, NewFramedCodec(d01b))

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
	ann := &PlanAnnounce{Interval: interval}
	plan.Table.Each(func(k tuple.Key, d int) { ann.Table = append(ann.Table, RouteEntry{k, d}) })
	for _, k := range plan.Moved {
		ann.Moved = append(ann.Moved, RouteEntry{k, plan.MoveDest[k]})
	}
	for _, c := range cc {
		if err := c.Send(&Message{Plan: ann}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cc {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind() != "ack" {
			t.Fatalf("expected ack, got %s", m.Kind())
		}
	}
	for _, c := range cc {
		if err := c.Send(&Message{Resume: &Resume{Interval: interval}}); err != nil {
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
