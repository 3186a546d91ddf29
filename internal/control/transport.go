package control

import (
	"errors"

	"repro/internal/protocol"
)

// Conn is the stage side's end of the control round. In a cluster it
// is the worker's session (cluster.Conn, the framed protocol Codec over
// a socket), answered by the coordinator; in process it is a call into
// Answer (NewLoop).
type Conn interface {
	Send(*protocol.Message) error
	Recv() (*protocol.Message, error)
}

// errNoReply ends an in-process round whose message got no answer.
var errNoReply = errors.New("control: message not answered")

// localConn is the in-process Conn: Send answers the message on the
// caller's goroutine with Answer over the stage's policies, Recv
// returns that answer. Messages pass by pointer, with no serialization
// and no second goroutine.
type localConn struct {
	policies []Policy
	reply    *protocol.Message
}

func (c *localConn) Send(m *protocol.Message) (err error) {
	c.reply, err = Answer(c.policies, m)
	return err
}

func (c *localConn) Recv() (*protocol.Message, error) {
	m := c.reply
	c.reply = nil
	if m == nil {
		return nil, errNoReply
	}
	return m, nil
}
