package control

import (
	"sync"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// Server is the controller side of the per-stage control loop, detached
// from any particular transport: it answers an Executor's reports,
// running the given policies each round. The cluster coordinator runs
// one per remote stage over a socket (Start, Close); in one process
// NewLoop calls the same round logic directly from the executor's
// Send, so both paths share every check and the one Commands reply.
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

// serve is the socket loop: it answers every round's report and exits
// when the transport closes or a peer breaks the protocol, closing the
// transport on its way out so the peer's round ends with an error
// instead of waiting for a reply that will not come.
func (s *Server) serve() {
	defer s.wg.Done()
	defer s.conn.Close()
	for {
		m, err := s.conn.Recv()
		if err != nil {
			return
		}
		reply, ok := s.answer(m)
		if !ok || s.conn.Send(reply) != nil {
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

// answer is one round: it checks the round's report, takes the
// snapshot and stage context from it, asks each policy to decide, and
// returns one Commands message carrying every command in order (none
// for a held round). Once CheckMerged has passed the report, its run
// becomes the snapshot's keys as it stands, valid as long as the sender
// keeps it (the stage's own buffer in process, the codec's on a socket:
// until the round after next either way). Anything else in a report's
// place, or a report that fails the check, is not answered (ok false).
func (s *Server) answer(m *protocol.Message) (reply *protocol.Message, ok bool) {
	r := m.Report
	if r == nil || r.CheckMerged() != nil {
		return nil, false
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
	cmds := &protocol.Commands{Interval: env.Interval}
	for _, p := range s.policies {
		for _, c := range p.Decide(env, snap) {
			cmds.List = appendCommand(cmds.List, c)
		}
	}
	return &protocol.Message{Commands: cmds}, true
}
