package control

import (
	"sync"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// Server is the controller side of the per-stage control loop, detached
// from any particular transport: it answers an Executor over a Conn —
// the in-process loopback or a cluster socket — running
// the given policies each round. Loop composes one with an Executor for
// the single-process case; the cluster coordinator runs one per remote
// stage, which is how the distributed control plane reuses the exact
// protocol logic the loopback pins.
type Server struct {
	conn     Conn
	policies []Policy
	wg       sync.WaitGroup
	once     sync.Once
}

// NewServer builds a policy server answering on conn. Call Start to
// launch it and Close to tear it down.
func NewServer(conn Conn, policies []Policy) *Server {
	return &Server{conn: conn, policies: policies}
}

// Start launches the server goroutine. It exits when the transport
// closes; Close waits for it.
func (s *Server) Start() {
	s.wg.Add(1)
	go s.serve()
}

// Close shuts the transport down and waits for the server goroutine to
// exit, so policy state is safe to read afterwards. Safe to call more
// than once.
func (s *Server) Close() {
	s.once.Do(func() {
		s.conn.Close()
		s.wg.Wait()
	})
}

// serve is the controller side: for every round it receives the
// round's report, checks it, takes the snapshot and stage context from
// it, asks each policy to decide, and answers with one Commands message
// carrying every command in order (none for a held round). It exits when
// the transport closes or a peer breaks the protocol, and closes the
// transport on its way out so the peer's round ends with an error
// instead of waiting for a reply that will not come.
func (s *Server) serve() {
	defer s.wg.Done()
	defer s.conn.Close()
	for {
		env, snap, ok := s.recvRound()
		if !ok {
			return
		}
		reply := &protocol.Commands{Interval: env.Interval}
		for _, p := range s.policies {
			for _, c := range p.Decide(env, snap) {
				reply.List = appendCommand(reply.List, c)
			}
		}
		if s.conn.Send(&protocol.Message{Commands: reply}) != nil {
			return
		}
	}
}

// appendCommand appends c's wire form to list.
func appendCommand(list []protocol.Command, c Command) []protocol.Command {
	switch c := c.(type) {
	case Rebalance:
		return append(list, protocol.Command{Plan: protocol.AnnounceFromPlan(c.Plan)})
	case ScaleOut:
		return append(list, protocol.Command{Resize: &protocol.Resize{Delta: 1}})
	case ScaleIn:
		return append(list, protocol.Command{Resize: &protocol.Resize{Delta: -1}})
	case SetSplit:
		ann := &protocol.SplitAnnounce{}
		for _, sp := range c.Set {
			ann.Set = append(ann.Set, protocol.SplitEntry{Key: sp.Key, Fan: sp.Fan})
		}
		return append(list, protocol.Command{Split: ann})
	}
	return list
}

// recvRound receives one round's report — a round is one Recv — and
// takes the snapshot and stage context from it. Once CheckMerged has
// passed it, the report's run becomes the snapshot's keys as it stands,
// valid as long as the transport keeps it (the stage's own buffer on the
// loopback, the codec's on a socket: until the round after next either
// way). Anything else in a report's place, or a report that fails the
// check, ends the serve loop.
func (s *Server) recvRound() (Env, *stats.Snapshot, bool) {
	m, err := s.conn.Recv()
	if err != nil || m.Report == nil {
		return Env{}, nil, false
	}
	r := m.Report
	if r.CheckMerged() != nil {
		return Env{}, nil, false
	}
	snap := &stats.Snapshot{Interval: r.Interval, ND: r.Tasks, Keys: r.Keys}
	env := Env{
		Interval:  r.Interval,
		Tasks:     r.Tasks,
		Capacity:  r.Capacity,
		Emitted:   r.Emitted,
		Budget:    r.Budget,
		Routable:  r.Routable,
		Resizable: r.Resizable,
	}
	for _, e := range r.Split {
		env.Split = append(env.Split, SplitSpec{Key: e.Key, Fan: e.Fan})
	}
	return env, snap, true
}
