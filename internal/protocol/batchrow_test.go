package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/tuple"
)

// refColumnarAppend is the sub-batch encoder the row layout replaced:
// the same varints, one column at a time. It survives as the size
// reference — a row frame must be exactly as long, field for field.
func refColumnarAppend(dst []byte, ts []tuple.Tuple) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ts)))
	for i := range ts {
		dst = binary.AppendUvarint(dst, uint64(ts[i].Key))
	}
	for i := range ts {
		dst = binary.AppendVarint(dst, ts[i].Cost)
	}
	for i := range ts {
		dst = binary.AppendVarint(dst, ts[i].StateSize)
	}
	for i := range ts {
		dst = binary.AppendUvarint(dst, ts[i].Seq)
	}
	for i := range ts {
		dst = binary.AppendVarint(dst, ts[i].EmitTick)
	}
	for i := range ts {
		dst = binary.AppendUvarint(dst, uint64(len(ts[i].Stream)))
		dst = append(dst, ts[i].Stream...)
	}
	for i := range ts {
		var err error
		if dst, err = appendValue(dst, ts[i].Value); err != nil {
			panic(err)
		}
	}
	return dst
}

// rowBlob is an application value type outside the tagged set: it
// crosses the wire through the per-value gob escape hatch.
type rowBlob struct{ A int }

func init() { gob.Register(rowBlob{}) }

// varintEdges sit on both sides of every encoded-length boundary the
// inlined one- and two-byte cases decide.
var varintEdges = []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1<<63 - 1, 1 << 63, math.MaxUint64}

// rowTuple draws one tuple: fields from the varint edges or small
// steady-state values, a stream label on some, every value tag in turn.
func rowTuple(r *fuzzRNG) tuple.Tuple {
	u := func() uint64 {
		if r.intn(3) == 0 {
			return varintEdges[r.intn(len(varintEdges))]
		}
		return r.next() % 300
	}
	// Signed fields: the same edges as zigzag images, so min-int64 and
	// ±0x40 (where a zigzag varint grows a byte) are drawn.
	s := func() int64 { return unzig(u()) }
	t := tuple.Tuple{Key: tuple.Key(u()), Cost: s(), StateSize: s(), Seq: u(), EmitTick: s()}
	t.Stream = []string{"", "", "counts", "R", string(make([]byte, 200))}[r.intn(5)]
	switch r.intn(10) {
	case 0:
		t.Value = nil
	case 1:
		t.Value = s()
	case 2:
		t.Value = int(s())
	case 3:
		t.Value = u()
	case 4:
		t.Value = math.Float64frombits(r.next())
	case 5:
		t.Value = "payload"
	case 6:
		t.Value = []byte{1, 2, 3}
	case 7:
		t.Value = tuple.Key(u())
	case 8:
		t.Value = []tuple.Key{tuple.Key(u()), tuple.Key(u())}
	default:
		t.Value = rowBlob{A: int(r.next() % 1000)}
	}
	return t
}

// sameTuples compares field by field with NaN-safe float comparison.
func sameTuples(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if fx, ok := x.Value.(float64); ok {
			fy, ok := y.Value.(float64)
			if !ok || math.Float64bits(fx) != math.Float64bits(fy) {
				return false
			}
			x.Value, y.Value = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// randomFrame builds one sealed batch frame of nchunks chunks (some
// empty) and returns it with the chunks it carries.
func randomFrame(r *fuzzRNG, nchunks int) ([]byte, [][]tuple.Tuple) {
	chunks := make([][]tuple.Tuple, nchunks)
	frame := AppendBatchHeader(nil)
	for i := range chunks {
		chunks[i] = make([]tuple.Tuple, r.intn(12))
		for j := range chunks[i] {
			chunks[i][j] = rowTuple(r)
		}
		var err error
		if frame, err = AppendBatchChunk(frame, chunks[i]); err != nil {
			panic(err)
		}
	}
	PatchBatchHeader(frame, nchunks)
	return frame, chunks
}

// framed prefixes a payload with its length, as it arrives on a stream.
func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestBatchRowRoundTrip is the row layout's model test: random frames of
// 1–40 chunks over every value tag, non-empty streams and the varint
// edges decode to their input, cost exactly the bytes the columnar
// layout did, and reach the callback decoder and Recv as the same chunk
// sequence.
func TestBatchRowRoundTrip(t *testing.T) {
	r := &fuzzRNG{s: 0x70a5}
	for round := 0; round < 200; round++ {
		nchunks := 1 + r.intn(40)
		frame, chunks := randomFrame(r, nchunks)

		ref := AppendBatchHeader(nil)
		for _, ch := range chunks {
			ref = refColumnarAppend(ref, ch)
		}
		if len(frame) != len(ref) {
			t.Fatalf("round %d: row frame is %d bytes, columnar reference %d", round, len(frame), len(ref))
		}

		recv := NewFramedCodec(readerOnly{bytes.NewReader(framed(frame))})
		recv.EnableBinary()
		m, err := recv.Recv()
		if err != nil {
			t.Fatalf("round %d: Recv: %v", round, err)
		}
		var viaRecv [][]tuple.Tuple
		m.Batch.Chunks(func(ts []tuple.Tuple) { viaRecv = append(viaRecv, append([]tuple.Tuple(nil), ts...)) })

		// The callback decoder, with a flush behind the frame to stop it.
		stream := append(framed(frame), framed([]byte{kindFlush, 0, 0, 0, 0, 0, 0, 0, 9})...)
		fed := NewFramedCodec(readerOnly{bytes.NewReader(stream)})
		fed.EnableBinary()
		var viaFeed [][]tuple.Tuple
		m, err = fed.RecvBatches(func(ts []tuple.Tuple) { viaFeed = append(viaFeed, append([]tuple.Tuple(nil), ts...)) })
		if err != nil || m.FlushReq == nil || m.FlushReq.Seq != 9 {
			t.Fatalf("round %d: RecvBatches = %v, %v; want the flush", round, m, err)
		}
		if fed.RecvMsgs() != 2 {
			t.Fatalf("round %d: RecvBatches counted %d frames, want 2", round, fed.RecvMsgs())
		}

		if len(viaRecv) != nchunks || len(viaFeed) != nchunks {
			t.Fatalf("round %d: %d chunks sent, Recv saw %d, the feed %d", round, nchunks, len(viaRecv), len(viaFeed))
		}
		for i := range chunks {
			if !sameTuples(chunks[i], viaRecv[i]) {
				t.Fatalf("round %d chunk %d: Recv decoded\n %+v\nwant\n %+v", round, i, viaRecv[i], chunks[i])
			}
			if !sameTuples(chunks[i], viaFeed[i]) {
				t.Fatalf("round %d chunk %d: the feed saw\n %+v\nwant\n %+v", round, i, viaFeed[i], chunks[i])
			}
		}
	}
}

// TestBatchRowTruncation cuts a valid frame's payload at every byte
// offset (the length prefix rewritten to match, as a hostile sender
// would): whatever is left must fail as ErrBinaryFrame, under Recv and
// under the callback decoder alike.
func TestBatchRowTruncation(t *testing.T) {
	r := &fuzzRNG{s: 0xc07}
	frame, _ := randomFrame(r, 5)
	for cut := 0; cut < len(frame); cut++ {
		for _, feed := range []func([]tuple.Tuple){nil, func([]tuple.Tuple) {}} {
			c := NewFramedCodec(readerOnly{bytes.NewReader(framed(frame[:cut]))})
			c.EnableBinary()
			var m *Message
			var err error
			if feed == nil {
				m, err = c.Recv()
			} else {
				m, err = c.RecvBatches(feed)
			}
			if cut == 0 {
				// A zero-length frame is the clean-shutdown marker.
				if err == nil {
					t.Fatalf("cut at 0 decoded as %s", m.Kind())
				}
				continue
			}
			if !errors.Is(err, ErrBinaryFrame) {
				t.Fatalf("cut at %d of %d: got %v, %v; want ErrBinaryFrame", cut, len(frame), m, err)
			}
		}
	}
}

// TestScalarWireAllocatesNothing pins the steady state of both
// directions: a scalar batch (nil and small-int64 values, interned
// stream labels) is sent, received and streamed to a feed without one
// allocation once the retained buffers have grown.
func TestScalarWireAllocatesNothing(t *testing.T) {
	msg := &Message{Batch: &TupleBatch{Tuples: benchBatch(256, false)}}
	var buf bytes.Buffer
	send, recv := binaryPair(&buf)
	flush := &Message{FlushReq: &Flush{Seq: 1}}
	fed := 0
	feed := func(ts []tuple.Tuple) { fed += len(ts) }
	round := func() {
		if err := send.Send(msg); err != nil {
			t.Fatal(err)
		}
		if m, err := recv.Recv(); err != nil || len(m.Batch.Tuples) != 256 {
			t.Fatalf("Recv = %v, %v", m, err)
		}
		if err := send.Send(msg); err != nil {
			t.Fatal(err)
		}
		if err := send.Send(flush); err != nil {
			t.Fatal(err)
		}
		if m, err := recv.RecvBatches(feed); err != nil || m.FlushReq == nil {
			t.Fatalf("RecvBatches = %v, %v", m, err)
		}
	}
	round() // grow the retained buffers
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("a scalar send/receive round allocates %v times, want 0", n)
	}
	if fed == 0 {
		t.Fatal("the feed saw no tuples")
	}
}

// TestControlRoundSendsNoGob pins the gob-free round: on a binary codec
// a plan, a resize, a split set and a state transfer each leave as their
// own frame kind, never behind kindGob.
func TestControlRoundSendsNoGob(t *testing.T) {
	for _, kind := range []int{1, 2, 3, 6} {
		for _, n := range []int{0, 1, 17} {
			var wire bytes.Buffer
			c := NewFramedCodec(&wire)
			c.EnableBinary()
			m := buildMessage(uint64(kind*53+n), kind, n)
			if err := c.Send(m); err != nil {
				t.Fatalf("send %s: %v", m.Kind(), err)
			}
			if k := wire.Bytes()[frameHeaderLen]; k == kindGob {
				t.Fatalf("%s (n=%d) went out as a gob frame", m.Kind(), n)
			}
		}
	}
}
