package cluster

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// snapshotKeeper keeps the snapshot it is handed, with a Clone taken
// then, and at its next round checks that the kept one still reads as
// the clone: a snapshot lives until the round after next.
type snapshotKeeper struct {
	kept, clone *stats.Snapshot
	rounds      int
	compared    int // rounds that compared a non-empty kept snapshot
	changed     int // of those, rounds whose kept snapshot had changed
}

func (k *snapshotKeeper) Decide(_ control.Env, snap *stats.Snapshot) []control.Command {
	if k.kept != nil && len(k.clone.Keys) > 0 {
		k.compared++
		if !slices.Equal(k.kept.Keys, k.clone.Keys) {
			k.changed++
		}
	}
	k.kept, k.clone = snap, snap.Clone()
	k.rounds++
	return nil
}

// TestSnapshotLivesUntilRoundAfterNext: one worker hosts every stage,
// so the parse and count stages' reports share one session codec. Each
// stage's policies still see the snapshot they were handed intact at
// their next round, as they do in one process.
func TestSnapshotLivesUntilRoundAfterNext(t *testing.T) {
	keepers := []*snapshotKeeper{{}, {}}
	runDistributed(t, "unix", 1, func(s *Spec) {
		for si, k := range keepers {
			s.Stages[si].Policies = append(s.Stages[si].Policies, k)
		}
	})
	for si, k := range keepers {
		if k.rounds != testIntervals || k.compared < testIntervals/2 {
			t.Fatalf("stage %d: %d rounds, %d compared a kept snapshot; want %d and most", si, k.rounds, k.compared, testIntervals)
		}
		if k.changed != 0 {
			t.Errorf("stage %d: %d of %d kept snapshots changed before the round after next", si, k.changed, k.compared)
		}
	}
}

// holdPolicy decides nothing: it makes its stage a controlled one.
type holdPolicy struct{}

func (holdPolicy) Decide(control.Env, *stats.Snapshot) []control.Command { return nil }

// fakeWorker registers with the coordinator at coord over a real
// socket and answers its session the way a worker hosting every stage
// of roundSpec does — each message gets the replies of reply, or the
// default ones when reply returns nil — and takes the spout's data
// connection, echoing its flushes. done closes when both have ended.
func fakeWorker(t *testing.T, dir, coord string, reply func(*protocol.Message) []*protocol.Message) (done chan struct{}) {
	t.Helper()
	dl, err := Listen("unix", filepath.Join(dir, "fake.sock"))
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := Dial("unix", coord, &protocol.Hello{Role: "worker", Worker: "fake", DataAddr: dl.Addr()})
	if err != nil {
		dl.Close()
		t.Fatal(err)
	}
	data := make(chan struct{})
	go func() {
		defer close(data)
		defer dl.Close()
		c, _, err := dl.Accept()
		if err != nil || c.Welcome(0) != nil {
			return
		}
		defer c.Close()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if m.FlushReq != nil && c.Send(m) != nil {
				return
			}
		}
	}()
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer func() { <-data }()
		defer dl.Close()
		defer sess.Close()
		for {
			m, err := sess.Recv()
			if err != nil {
				return
			}
			out := reply(m)
			if out == nil {
				out = defaultReplies(m)
			}
			for _, o := range out {
				if sess.Send(o) != nil {
					return
				}
			}
			if m.Bye != nil {
				return
			}
		}
	}()
	return done
}

// goodReport is the report a fake worker sends for stage 0 of roundSpec
// in interval 0.
func goodReport() *protocol.LoadReport {
	return &protocol.LoadReport{Interval: 0, Tasks: 2, Keys: []stats.KeyStat{
		{Key: 1, Cost: 3, Freq: 3, Dest: 1, Hash: 1},
		{Key: 2, Cost: 1, Freq: 1, Dest: 0, Hash: 0},
	}}
}

// harvested is a fake worker's HarvestDone for stage si of roundSpec.
func harvested(si int) *protocol.Message {
	return &protocol.Message{Harvested: &protocol.HarvestDone{Stage: si, Backlog: []int64{0, 0}}}
}

// defaultReplies keeps a fake worker in step: every drive message is
// acked, stage 0 — the controlled one — reports at its harvest and
// answers the commands with its HarvestDone, stage 1 answers its
// harvest at once.
func defaultReplies(m *protocol.Message) []*protocol.Message {
	switch {
	case m.Assign != nil, m.Start != nil, m.Close != nil:
		return []*protocol.Message{{Ack: &protocol.Ack{}}}
	case m.Harvest != nil && m.Harvest.Stage == 0:
		return []*protocol.Message{{Report: goodReport()}}
	case m.Harvest != nil:
		return []*protocol.Message{harvested(m.Harvest.Stage)}
	case m.Commands != nil:
		return []*protocol.Message{harvested(0)}
	case m.Bye != nil:
		return []*protocol.Message{{ConnStats: &protocol.Stats{Worker: "fake"}}}
	}
	return nil
}

// roundSpec is two stages of two instances: stage 0 is controlled by a
// policy that holds, stage 1 has no policies.
func roundSpec() *Spec {
	return &Spec{
		Name:   "round",
		SpoutB: func([]tuple.Tuple) int { return 0 },
		Stages: []StageSpec{
			{Name: "a", Op: "social/count", Instances: 2, Algorithm: topology.AlgStorm, Policies: []control.Policy{holdPolicy{}}},
			{Name: "b", Op: "social/count", Instances: 2, Algorithm: topology.AlgStorm},
		},
	}
}

// TestSessionRoundIsValidated: the coordinator takes a worker's control
// round as outside input. A report is accepted only inside the harvest
// of a stage with policies, once, for the interval being harvested,
// past CheckMerged and naming the stage's instance count; anything
// else ends RunInterval, in bounded time, with an error naming the
// worker, the stage and the interval.
func TestSessionRoundIsValidated(t *testing.T) {
	report := func(mutate func(*protocol.LoadReport)) []*protocol.Message {
		r := goodReport()
		mutate(r)
		return []*protocol.Message{{Report: r}}
	}
	rows := []struct {
		name  string
		reply func(*protocol.Message) []*protocol.Message
		stage int
		want  string // besides worker, stage and interval
	}{
		{"in step", func(*protocol.Message) []*protocol.Message { return nil }, -1, ""},
		{"report in place of a close ack", func(m *protocol.Message) []*protocol.Message {
			if m.Close != nil && m.Close.Stage == 0 {
				return report(func(*protocol.LoadReport) {})
			}
			return nil
		}, 0, "close: expected ack from fake, got report"},
		{"report from a stage without policies", func(m *protocol.Message) []*protocol.Message {
			if m.Harvest != nil && m.Harvest.Stage == 1 {
				return report(func(*protocol.LoadReport) {})
			}
			return nil
		}, 1, "unexpected reply report"},
		{"no report from a controlled stage", func(m *protocol.Message) []*protocol.Message {
			if m.Harvest != nil && m.Harvest.Stage == 0 {
				return []*protocol.Message{harvested(0)}
			}
			return nil
		}, 0, "harvested where the control round's report belongs"},
		{"second report", func(m *protocol.Message) []*protocol.Message {
			if m.Commands != nil {
				return report(func(*protocol.LoadReport) {})
			}
			return nil
		}, 0, "a second report in one round"},
		{"another interval", func(m *protocol.Message) []*protocol.Message {
			if m.Harvest != nil && m.Harvest.Stage == 0 {
				return report(func(r *protocol.LoadReport) { r.Interval = 1 })
			}
			return nil
		}, 0, "a report of interval 1"},
		{"fails CheckMerged", func(m *protocol.Message) []*protocol.Message {
			if m.Harvest != nil && m.Harvest.Stage == 0 {
				return report(func(r *protocol.LoadReport) { r.Keys[0].Dest = 2 })
			}
			return nil
		}, 0, "report entry 0 names instance 2 of 2"},
		{"another instance count", func(m *protocol.Message) []*protocol.Message {
			if m.Harvest != nil && m.Harvest.Stage == 0 {
				return report(func(r *protocol.LoadReport) { r.Tasks = 3 })
			}
			return nil
		}, 0, "a report naming 3 instances, the stage runs 2"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewCoordinator(roundSpec(), "unix", filepath.Join(dir, "coord.sock"))
			if err != nil {
				t.Fatal(err)
			}
			done := fakeWorker(t, dir, c.Addr(), row.reply)
			defer func() {
				c.Shutdown()
				<-done
			}()
			if err := c.Deploy(1); err != nil {
				t.Fatal(err)
			}
			run := make(chan error, 1)
			go func() { run <- c.RunInterval() }()
			select {
			case err := <-run:
				if row.stage < 0 {
					if err != nil {
						t.Fatalf("RunInterval = %v, want the interval to complete", err)
					}
					return
				}
				named := fmt.Sprintf("worker fake, stage %d, interval 0", row.stage)
				if err == nil || !strings.Contains(err.Error(), named) || !strings.Contains(err.Error(), row.want) {
					t.Fatalf("RunInterval = %v, want an error naming %q and saying %q", err, named, row.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunInterval did not end")
			}
		})
	}
}

// TestOnlyWorkersRegister: the coordinator's listener takes worker
// sessions alone. A Hello of any other role — "control" included, which
// before protocol version 14 opened a stage's control connection — is
// refused without a Welcome.
func TestOnlyWorkersRegister(t *testing.T) {
	c, err := NewCoordinator(roundSpec(), "unix", filepath.Join(t.TempDir(), "coord.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for _, role := range []string{"control", "data", ""} {
		if conn, _, err := Dial("unix", c.Addr(), &protocol.Hello{Role: role, Worker: "w0"}); err == nil {
			conn.Close()
			t.Fatalf("a %q Hello was welcomed", role)
		}
	}
}
