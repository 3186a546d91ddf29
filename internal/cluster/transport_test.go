package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/tuple"
)

// listenAddr returns a fresh listener address for the network: an
// ephemeral loopback port for tcp, a socket path in the test's temp
// dir for unix.
func listenAddr(t *testing.T, network string) string {
	t.Helper()
	if network == "unix" {
		return filepath.Join(t.TempDir(), "s.sock")
	}
	return "127.0.0.1:0"
}

func TestHandshake(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			ln, err := Listen(network, listenAddr(t, network))
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer ln.Close()

			type result struct {
				c *Conn
				w *protocol.Welcome
			}
			done := make(chan result, 1)
			go func() {
				c, w, err := Dial(network, ln.Addr(), &protocol.Hello{Role: "worker", Worker: "w0", DataAddr: "addr0"})
				if err != nil {
					t.Errorf("dial: %v", err)
					close(done)
					return
				}
				done <- result{c, w}
			}()

			sc, hello, err := ln.Accept()
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
			defer sc.Close()
			if hello.Role != "worker" || hello.Worker != "w0" || hello.DataAddr != "addr0" {
				t.Fatalf("hello = %+v", hello)
			}
			if hello.Proto != Proto {
				t.Fatalf("hello proto = %d, want %d", hello.Proto, Proto)
			}
			if err := sc.Welcome(7); err != nil {
				t.Fatalf("welcome: %v", err)
			}
			r, ok := <-done
			if !ok {
				t.Fatal("dial failed")
			}
			defer r.c.Close()
			if r.w.ID != 7 || r.w.Proto != Proto {
				t.Fatalf("welcome = %+v", r.w)
			}

			// Established connections speak the framed codec both ways.
			if err := r.c.Send(&protocol.Message{Start: &protocol.StartInterval{Interval: 3, Emit: 99}}); err != nil {
				t.Fatalf("send: %v", err)
			}
			m, err := sc.Recv()
			if err != nil || m.Start == nil || m.Start.Emit != 99 {
				t.Fatalf("recv = %v, %v", m, err)
			}
			batch := &protocol.Message{Batch: &protocol.TupleBatch{Tuples: []tuple.Tuple{tuple.New(9, int64(1))}}}
			if err := sc.Send(batch); err != nil {
				t.Fatalf("send on the accepted end: %v", err)
			}
			if m, err := r.c.Recv(); err != nil || m.Batch == nil || m.Batch.Tuples[0].Key != 9 {
				t.Fatalf("recv on the dialed end = %v, %v", m, err)
			}
		})
	}
}

// TestBatchConnConcurrentFeed stresses the encode-outside-mutex path:
// many goroutines feed one coalescing BatchConn while the receiver
// replays chunks. Every chunk must arrive intact and in per-sender
// order — chunks interleave across senders but never tear — and the
// feed is several DefCoalesce budgets long, so frames fill and ship
// mid-stream, not only at the Flush.
func TestBatchConnConcurrentFeed(t *testing.T) {
	const senders, chunksPer, perChunk = 8, 200, 17
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	var got [][]tuple.Tuple
	done := make(chan struct{})
	go func() {
		sc, _, err := ln.Accept()
		if err != nil {
			return
		}
		_ = sc.Welcome(0)
		flushEcho(t, sc, &got, done)
	}()

	dc, _, err := Dial("tcp", ln.Addr(), &protocol.Hello{Role: "data"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	before := dc.SentMsgs() // the Hello
	bc := NewBatchConn(dc)

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ts := make([]tuple.Tuple, perChunk)
			for seq := 0; seq < chunksPer; seq++ {
				base := uint64(g)<<32 | uint64(seq)<<8
				for i := range ts {
					ts[i] = tuple.New(tuple.Key(base+uint64(i)), int64(i))
				}
				bc.FeedBatch(ts)
			}
		}(g)
	}
	wg.Wait()
	if err := bc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Everything sent since the Hello but the flush request is data.
	if frames := dc.SentMsgs() - before - 1; frames < 2 {
		t.Fatalf("%d chunks shipped in %d data frames; want frames filled and shipped mid-stream", senders*chunksPer, frames)
	}
	bc.Close()
	<-done

	if len(got) != senders*chunksPer {
		t.Fatalf("received %d chunks, want %d", len(got), senders*chunksPer)
	}
	nextSeq := make([]int, senders)
	for ci, chunk := range got {
		if len(chunk) != perChunk {
			t.Fatalf("chunk %d has %d tuples, want %d", ci, len(chunk), perChunk)
		}
		g := int(chunk[0].Key >> 32)
		seq := int(chunk[0].Key>>8) & 0xffffff
		if g < 0 || g >= senders || seq != nextSeq[g] {
			t.Fatalf("chunk %d: sender %d seq %d, want seq %d", ci, g, seq, nextSeq[g])
		}
		nextSeq[g]++
		base := uint64(g)<<32 | uint64(seq)<<8
		for i, tt := range chunk {
			if tt.Key != tuple.Key(base+uint64(i)) || tt.Value != any(int64(i)) {
				t.Fatalf("chunk %d tuple %d torn: %+v", ci, i, tt)
			}
		}
	}
}

// TestHandshakeProtoMismatch refuses a newer peer and the older versions
// alike: a version-9 peer hoists a stream label and a version-8 peer an
// emit tick under a sub-batch flag this version does not know, a version-7 peer sends its session messages as gob frames and
// its migrated state as a gob stream, a version-6 worker would build a
// PKG target without its latency floor, a version-5 peer opens with a
// gob-stream Hello and negotiates the binary wire after it, a version-4
// peer ships arrival arrays in its harvest reply, a version-3 peer
// writes every field in every batch row and a version-2 peer lays them
// out as columns, so there is nothing to fall back to. The Hello a
// version-6 or -7 peer actually sends (a gob frame behind kind byte
// 0x00) and the gob-stream Hello of every version up to 5 are refused at
// once, not after the handshake timeout.
func TestHandshakeProtoMismatch(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	for _, proto := range []int{Proto + 1, 10, 9, 8, 7, 6, 5, 4, 3, 2} {
		go func() {
			// A raw framed client announcing the wrong protocol version.
			nc, err := net.Dial("tcp", ln.Addr())
			if err != nil {
				return
			}
			defer nc.Close()
			codec := protocol.NewFramedCodec(nc)
			_ = codec.Send(&protocol.Message{Hello: &protocol.Hello{Proto: proto, Role: "worker"}})
			_, _ = codec.Recv()
		}()
		if _, _, err := ln.Accept(); err == nil {
			t.Fatalf("accept of a version-%d peer succeeded", proto)
		}
	}

	// A Hello as a length-framed gob stream, which is how every peer up
	// to version 5 opened its connection, and as the gob frame behind
	// kind byte 0x00 that versions 6 and 7 sent.
	for _, old := range []struct {
		proto int
		kind  []byte
	}{{5, nil}, {6, []byte{0x00}}, {7, []byte{0x00}}} {
		hello := bytes.NewBuffer(old.kind)
		if err := gob.NewEncoder(hello).Encode(&protocol.Message{Hello: &protocol.Hello{Proto: old.proto, Role: "worker", Worker: "w0"}}); err != nil {
			t.Fatal(err)
		}
		go func() {
			nc, err := net.Dial("tcp", ln.Addr())
			if err != nil {
				return
			}
			defer nc.Close()
			_, _ = nc.Write(append(binary.BigEndian.AppendUint32(nil, uint32(hello.Len())), hello.Bytes()...))
			_, _ = io.Copy(io.Discard, nc) // hold the connection open until the accepter hangs up
		}()
		start := time.Now()
		if _, _, err := ln.Accept(); err == nil {
			t.Fatalf("accept of a version-%d gob hello succeeded", old.proto)
		} else if d := time.Since(start); d > handshakeTimeout/10 {
			t.Fatalf("a version-%d gob hello was refused after %v (%v); want well inside the %v handshake timeout", old.proto, d, err, handshakeTimeout)
		}
	}
}

func TestCleanShutdownVsTruncation(t *testing.T) {
	pair := func(t *testing.T) (*Conn, *Conn) {
		ln, err := Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		var dialed *Conn
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			dialed, _, _ = Dial("tcp", ln.Addr(), &protocol.Hello{Role: "x"})
		}()
		sc, _, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		if err := sc.Welcome(0); err != nil {
			t.Fatalf("welcome: %v", err)
		}
		wg.Wait()
		if dialed == nil {
			t.Fatal("dial failed")
		}
		return dialed, sc
	}

	t.Run("clean", func(t *testing.T) {
		a, b := pair(t)
		defer b.Close()
		a.Close() // sends the zero-length shutdown frame first
		if _, err := b.Recv(); !errors.Is(err, io.EOF) {
			t.Fatalf("recv after clean close = %v, want io.EOF", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		a, b := pair(t)
		defer b.Close()
		// Tear the socket down with no shutdown frame: a mid-stream cut.
		// TCP RST/FIN without the frame must not read as a clean EOF...
		a.c.Close()
		_, err := b.Recv()
		if err == nil {
			t.Fatal("recv after raw close succeeded")
		}
		// ...unless it lands exactly between frames, which a raw close
		// does here (no partial frame was in flight). The guarantee under
		// test: an in-frame cut is distinguishable. Write half a header,
		// then cut.
		c, d := pair(t)
		defer d.Close()
		if _, err := c.c.Write([]byte{0, 0}); err != nil {
			t.Fatalf("write partial header: %v", err)
		}
		c.c.Close()
		_, err = d.Recv()
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("recv after in-frame cut = %v, want unexpected-EOF error", err)
		}
	})
}

// flushEcho is the receiver half of the data-plane protocol, as the
// worker runs it: batches accumulate, flushes echo.
func flushEcho(t *testing.T, c *Conn, got *[][]tuple.Tuple, done chan<- struct{}) {
	defer close(done)
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch {
		case m.Batch != nil:
			m.Batch.Chunks(func(ts []tuple.Tuple) {
				*got = append(*got, append([]tuple.Tuple(nil), ts...))
			})
		case m.FlushReq != nil:
			if c.Send(&protocol.Message{FlushReq: m.FlushReq}) != nil {
				return
			}
		}
	}
}

func TestBatchConnFlushBarrier(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			ln, err := Listen(network, listenAddr(t, network))
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer ln.Close()

			var got [][]tuple.Tuple
			done := make(chan struct{})
			go func() {
				sc, _, err := ln.Accept()
				if err != nil {
					return
				}
				_ = sc.Welcome(0)
				flushEcho(t, sc, &got, done)
			}()

			dc, _, err := Dial(network, ln.Addr(), &protocol.Hello{Role: "data", Stage: 0})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			bc := NewBatchConn(dc)

			// Chunk boundaries must be preserved: one FeedBatch = one
			// received batch, in order.
			want := [][]tuple.Tuple{
				{tuple.New(1, int64(10)), tuple.New(2, int64(20))},
				{tuple.New(3, nil)},
				{tuple.New(4, "s"), tuple.New(5, []tuple.Key{6, 7})},
			}
			for _, batch := range want {
				bc.FeedBatch(batch)
			}
			bc.FeedBatch(nil) // empty batches never hit the wire
			if err := bc.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			// The barrier holds: everything sent before Flush returned is
			// already in got, no synchronization needed beyond the echo.
			if len(got) != len(want) {
				t.Fatalf("received %d batches, want %d", len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("batch %d: %d tuples, want %d", i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					g, w := got[i][j], want[i][j]
					if g.Key != w.Key {
						t.Fatalf("batch %d tuple %d: key %v, want %v", i, j, g.Key, w.Key)
					}
				}
			}
			if err := bc.Flush(); err != nil {
				t.Fatalf("second flush: %v", err)
			}
			st := bc.Stat()
			if st.Sent == 0 || st.Rcvd == 0 {
				t.Fatalf("byte counters not advancing: %+v", st)
			}
			bc.Close()
			<-done
		})
	}
}

// TestWorkerReportsCutDataFrame pins the data plane's failure path: a
// frame whose second chunk is cut closes the connection, and the worker
// says so — Run returns within a bound with ErrBinaryFrame under the
// connection's name, instead of leaving the sender's next flush to fail
// with a bare EOF. The chunk ahead of the cut one is already in the
// stage: the streamed receive feeds as it decodes.
func TestWorkerReportsCutDataFrame(t *testing.T) {
	c, err := NewCoordinator(testSpec(t), "unix", filepath.Join(t.TempDir(), "coord.sock"))
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Shutdown()
	w, err := NewWorker("unix", c.Addr(), filepath.Join(t.TempDir(), "w0.sock"), "w0")
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	if err := c.Deploy(1); err != nil {
		t.Fatalf("deploy: %v", err)
	}

	dc, _, err := Dial("unix", w.dataLn.Addr(), &protocol.Hello{Role: "data", Worker: "rogue", Stage: 0})
	if err != nil {
		t.Fatalf("dial data listener: %v", err)
	}
	defer dc.Close()
	// The parse stage's input shape: a post, with the topics it names.
	post := []tuple.Key{7}
	whole := []tuple.Tuple{tuple.New(1, post), tuple.New(2, post), tuple.New(3, post)}
	frame := protocol.AppendBatchHeader(nil)
	for range 2 {
		if frame, err = protocol.AppendBatchChunk(frame, whole); err != nil {
			t.Fatal(err)
		}
	}
	protocol.PatchBatchHeader(frame, 2)
	if err := dc.SendFrame(frame[:len(frame)-3]); err != nil {
		t.Fatalf("send: %v", err)
	}

	select {
	case err := <-done:
		if !errors.Is(err, protocol.ErrBinaryFrame) || !strings.Contains(err.Error(), "data rogue→s0") {
			t.Fatalf("Run returned %v; want ErrBinaryFrame naming the connection", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a cut data frame")
	}
	var fed int64
	for _, n := range w.Stage(0).ArrivedTuples() {
		fed += n
	}
	if fed != int64(len(whole)) {
		t.Fatalf("stage 0 was fed %d tuples, want the first chunk's %d", fed, len(whole))
	}
}
