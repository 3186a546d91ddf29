package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/protocol"
)

// Proto is the cluster session protocol version, validated on both
// sides of every Hello/Welcome handshake. Version 14 runs each stage's
// control round on its worker's session, between the stage's HarvestReq
// and HarvestDone, where version 13 dialed a control connection per
// stage; older peers are refused.
const Proto = 14

// handshakeTimeout bounds the Hello/Welcome exchange (and nothing
// else: established connections block indefinitely — the interval
// clock, not a timer, paces the session).
const handshakeTimeout = 10 * time.Second

// Conn is one established cluster connection: the framed codec over a
// TCP or unix socket, with per-direction byte counters and a
// clean-shutdown close. It satisfies control.Conn: a worker's
// control.Executor runs its stage's rounds over the worker's session.
type Conn struct {
	*protocol.Codec
	c    net.Conn
	name string
	once sync.Once
}

// Name returns the label the connection reports byte counters under.
func (c *Conn) Name() string { return c.name }

// SetName relabels the connection (e.g. once the peer identified
// itself in its Hello).
func (c *Conn) SetName(n string) { c.name = n }

// Stat returns the connection's byte and message counters for the
// shutdown table. Byte counters count codec payload only — frame
// headers are excluded; message counters count wire units (coalesced
// frames count once).
func (c *Conn) Stat() protocol.ConnStat {
	return protocol.ConnStat{
		Name: c.name,
		Sent: c.SentBytes(), Rcvd: c.RecvBytes(),
		SentMsgs: c.SentMsgs(), RcvdMsgs: c.RecvMsgs(),
	}
}

// Close shuts the connection down cleanly: a best-effort zero-length
// shutdown frame tells the peer's codec to report io.EOF (clean close,
// not truncation), then the socket closes. Safe to call more than
// once, from any goroutine.
func (c *Conn) Close() error {
	var err error
	c.once.Do(func() {
		_ = protocol.WriteShutdownFrame(c.c)
		err = c.c.Close()
	})
	return err
}

// Dial connects to a cluster listener, performs the handshake (sends
// hello, waits for the Welcome, validates the protocol version) and
// returns the established connection. network is "tcp" or "unix".
func Dial(network, addr string, hello *protocol.Hello) (*Conn, *protocol.Welcome, error) {
	h := *hello
	h.Proto = Proto
	nc, err := net.DialTimeout(network, addr, handshakeTimeout)
	if err != nil {
		return nil, nil, err
	}
	c := &Conn{Codec: protocol.NewFramedCodec(nc), c: nc, name: h.Role}
	_ = nc.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := c.Send(&protocol.Message{Hello: &h}); err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: handshake send: %w", err)
	}
	m, err := c.Recv()
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: handshake recv: %w", err)
	}
	if m.Welcome == nil {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: handshake: expected welcome, got %s", m.Kind())
	}
	if m.Welcome.Proto != Proto {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: protocol version mismatch: ours %d, peer %d", Proto, m.Welcome.Proto)
	}
	_ = nc.SetDeadline(time.Time{})
	return c, m.Welcome, nil
}

// Listener accepts cluster connections on a TCP or unix socket.
type Listener struct {
	ln      net.Listener
	network string
}

// Listen opens a cluster listener. For "tcp", addr like
// "127.0.0.1:0" picks an ephemeral port; for "unix", addr is the
// socket path (unlinked again when the listener closes).
func Listen(network, addr string) (*Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln, network: network}, nil
}

// Addr returns the bound address in dialable form.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Network returns the listener's network ("tcp" or "unix").
func (l *Listener) Network() string { return l.network }

// Close stops accepting. Established connections are unaffected.
func (l *Listener) Close() error { return l.ln.Close() }

// Accept waits for one connection and its opening Hello, validating
// the protocol version. The caller decides how to answer: send a
// Welcome (the handshake's second half — use Welcome) to accept, or
// Close to reject. The Hello must arrive within the handshake timeout.
func (l *Listener) Accept() (*Conn, *protocol.Hello, error) {
	nc, err := l.ln.Accept()
	if err != nil {
		return nil, nil, err
	}
	c := &Conn{Codec: protocol.NewFramedCodec(nc), c: nc, name: "conn"}
	_ = nc.SetDeadline(time.Now().Add(handshakeTimeout))
	m, err := c.Recv()
	if err != nil {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: accept handshake: %w", err)
	}
	if m.Hello == nil {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: accept handshake: expected hello, got %s", m.Kind())
	}
	if m.Hello.Proto != Proto {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: protocol version mismatch: ours %d, peer %d", Proto, m.Hello.Proto)
	}
	_ = nc.SetDeadline(time.Time{})
	c.name = m.Hello.Role
	return c, m.Hello, nil
}

// Welcome completes an accepted handshake, assigning the connection an
// id (workers get their registration index; data connections echo
// their stage).
func (c *Conn) Welcome(id int) error {
	return c.Send(&protocol.Message{Welcome: &protocol.Welcome{Proto: Proto, ID: id}})
}
