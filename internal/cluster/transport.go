package cluster

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/tuple"
)

// Proto is the cluster session protocol version, validated on both
// sides of every Hello/Welcome handshake. Version 5 is the harvest reply
// that carries the stage's finished metrics row and post-model backlog;
// a version-4 peer ships arrival arrays for the coordinator to model
// instead. Version 4 introduced the flagged batch sub-frame, whose rows
// carry only the fields that vary inside their chunk. Older peers are
// refused.
const Proto = 5

// Feature bits, advertised in Hello.Features and granted (as a subset)
// in Welcome.Features. The handshake itself always speaks gob, so a
// peer that predates a feature simply never offers or grants its bit
// and the connection falls back cleanly.
const (
	// FeatureBinary switches the connection to the hand-rolled binary
	// wire (internal/protocol's kind-dispatched frames) immediately
	// after the Welcome. Both sides must hold the bit: the dialer
	// offers it, the accepter grants it back.
	FeatureBinary uint32 = 1 << 0
)

// knownFeatures is every bit this build understands. A Hello carrying
// bits outside this set is from a newer or corrupt peer; the accepter
// rejects it with a clean error rather than guessing.
const knownFeatures = FeatureBinary

// wireGob, when set, stops this process from offering or granting
// FeatureBinary, as a peer that predates the feature would: every
// connection then speaks the framed gob wire end to end. Nothing outside
// this package's tests sets it — they use it to keep the negotiated
// fallback pinned equivalent to the binary wire.
var wireGob atomic.Bool

// offeredFeatures returns the feature bits this process advertises and
// is willing to grant.
func offeredFeatures() uint32 {
	if wireGob.Load() {
		return 0
	}
	return FeatureBinary
}

// handshakeTimeout bounds the Hello/Welcome exchange (and nothing
// else: established connections block indefinitely — the interval
// clock, not a timer, paces the session).
const handshakeTimeout = 10 * time.Second

func init() {
	// Tuple values cross the wire as gob interface values; register the
	// concrete types the in-tree workloads and operators put there.
	// Applications with custom value types add theirs via
	// state.RegisterValue (the same registry).
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register([]byte(nil))
	gob.Register(tuple.Key(0))
	gob.Register([]tuple.Key(nil))
}

// Conn is one established cluster connection: the framed gob codec
// over a TCP or unix socket, with per-direction byte counters and a
// clean-shutdown close. It satisfies control.Conn, so a coordinator's
// control.Server and a worker's control.Executor speak over it
// unchanged.
type Conn struct {
	*protocol.Codec
	c    net.Conn
	name string
	once sync.Once
	// offered holds the peer's Hello feature bits on an accepted
	// connection, pending the Welcome; features holds the negotiated
	// set once the handshake completes.
	offered  uint32
	features uint32
}

// Features returns the feature bits both sides agreed to.
func (c *Conn) Features() uint32 { return c.features }

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
	h.Features = offeredFeatures()
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
	if granted := m.Welcome.Features; granted&^h.Features != 0 {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: handshake: peer granted feature bits %#x we never offered (%#x)", granted, h.Features)
	}
	c.features = m.Welcome.Features
	if c.features&FeatureBinary != 0 {
		c.EnableBinary()
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
	if unknown := m.Hello.Features &^ knownFeatures; unknown != 0 {
		nc.Close()
		return nil, nil, fmt.Errorf("cluster: handshake: unknown feature bits %#x in hello (known %#x)", unknown, knownFeatures)
	}
	c.offered = m.Hello.Features
	_ = nc.SetDeadline(time.Time{})
	c.name = m.Hello.Role
	return c, m.Hello, nil
}

// Welcome completes an accepted handshake, assigning the connection an
// id (workers get their registration index; control and data
// connections echo their stage) and granting the intersection of the
// peer's offered features with this process's own. The Welcome itself
// still travels as gob; any granted codec switches on immediately
// after, so both sides change modes at the same stream position.
func (c *Conn) Welcome(id int) error {
	granted := c.offered & offeredFeatures()
	if err := c.Send(&protocol.Message{Welcome: &protocol.Welcome{Proto: Proto, ID: id, Features: granted}}); err != nil {
		return err
	}
	c.features = granted
	if granted&FeatureBinary != 0 {
		c.EnableBinary()
	}
	return nil
}
