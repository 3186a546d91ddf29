package control

import (
	"errors"

	"repro/internal/protocol"
)

// Conn is one side of a bidirectional control-message link. Across
// processes it is cluster.Conn, the framed protocol Codec over a
// socket; in process it is a call into the Server's round logic
// (NewLoop). Close unblocks the peer's pending Recv with an error.
type Conn interface {
	Send(*protocol.Message) error
	Recv() (*protocol.Message, error)
	Close() error
}

// errNoReply ends an in-process round whose message got no answer.
var errNoReply = errors.New("control: message not answered")

// localConn is the in-process Conn: Send answers the message on the
// caller's goroutine with the Server's round logic, Recv returns that
// answer. Messages pass by pointer, with no serialization and no second
// goroutine.
type localConn struct {
	srv   *Server
	reply *protocol.Message
}

func (c *localConn) Send(m *protocol.Message) error {
	var ok bool
	if c.reply, ok = c.srv.answer(m); !ok {
		return errNoReply
	}
	return nil
}

func (c *localConn) Recv() (*protocol.Message, error) {
	m := c.reply
	c.reply = nil
	if m == nil {
		return nil, errNoReply
	}
	return m, nil
}

func (c *localConn) Close() error { return nil }
