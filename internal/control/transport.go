package control

import (
	"fmt"
	"sync"

	"repro/internal/protocol"
)

// Conn is one side of a bidirectional control-message link. In process
// it is the loopback, which passes *protocol.Message values through
// channels; across processes it is cluster.Conn, the framed protocol
// Codec over a socket. Close unblocks the peer's pending Recv with an
// error.
type Conn interface {
	Send(*protocol.Message) error
	Recv() (*protocol.Message, error)
	Close() error
}

// errClosed is returned by loopback operations after either endpoint
// closed the pair.
var errClosed = fmt.Errorf("control: transport closed")

// chanConn is the loopback transport: a buffered channel pair carrying
// message pointers. Both endpoints share one done channel (and the
// once guarding it), so closing either side releases both directions.
type chanConn struct {
	out  chan *protocol.Message
	in   chan *protocol.Message
	done chan struct{}
	once *sync.Once
}

func (c *chanConn) Send(m *protocol.Message) error {
	select {
	case c.out <- m:
		return nil
	case <-c.done:
		return errClosed
	}
}

func (c *chanConn) Recv() (*protocol.Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.done:
		// Drain anything already queued before reporting closure, so a
		// shutdown cannot drop a round's trailing messages.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return nil, errClosed
		}
	}
}

func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

// loopbackBuffer sizes each loopback direction: a round sends one
// message each way (the report, the reply), so neither send waits on
// its receiver.
const loopbackBuffer = 1

// NewLoopbackPair returns two connected in-process Conns: messages
// Sent on one arrive at the other's Recv as the same pointer values,
// with no serialization. It is the control plane's in-process
// transport.
func NewLoopbackPair() (Conn, Conn) {
	ab := make(chan *protocol.Message, loopbackBuffer)
	ba := make(chan *protocol.Message, loopbackBuffer)
	done := make(chan struct{})
	once := new(sync.Once)
	return &chanConn{out: ab, in: ba, done: done, once: once},
		&chanConn{out: ba, in: ab, done: done, once: once}
}
