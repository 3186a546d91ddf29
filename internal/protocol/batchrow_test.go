package protocol

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/state"
	"repro/internal/tuple"
)

// refRowAppend is the sub-batch encoder the flagged layout replaced:
// every field in every row. It survives as the size reference — a
// flagged chunk is at most its flags byte longer, and shorter whenever
// it hoists a field.
func refRowAppend(dst []byte, ts []tuple.Tuple) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ts)))
	for i := range ts {
		t := &ts[i]
		dst = binary.AppendUvarint(dst, uint64(t.Key))
		dst = binary.AppendVarint(dst, t.Cost)
		dst = binary.AppendVarint(dst, t.StateSize)
		dst = binary.AppendUvarint(dst, t.Seq)
		var err error
		if dst, err = tuple.AppendValue(dst, t.Value); err != nil {
			panic(err)
		}
	}
	return dst
}

// refTwoPassAppend is the sub-batch encoder AppendBatchChunk's one pass
// replaced: scan the whole chunk for its flags, then write it. It
// survives as the byte reference — whichever way AppendBatchChunk takes
// a chunk, it must write these bytes — and shares no code with it.
func refTwoPassAppend(dst []byte, ts []tuple.Tuple) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ts)))
	if len(ts) == 0 {
		return append(dst, 0)
	}
	h, flags := ts[0], subKnown
	for i, t := range ts {
		if t.Cost != h.Cost {
			flags &^= subCost
		}
		if t.StateSize != h.StateSize {
			flags &^= subState
		}
		if t.Value != nil {
			flags &^= subNil
		}
		if i > 0 && t.Seq < ts[i-1].Seq {
			flags &^= subSeqDelta
		}
	}
	dst = append(dst, flags)
	if flags&subCost != 0 {
		dst = binary.AppendVarint(dst, h.Cost)
	}
	if flags&subState != 0 {
		dst = binary.AppendVarint(dst, h.StateSize)
	}
	var prev uint64
	for _, t := range ts {
		seq := t.Seq
		if flags&subSeqDelta != 0 {
			seq, prev = t.Seq-prev, t.Seq
		}
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(t.Key)), seq)
		if flags&subCost == 0 {
			dst = binary.AppendVarint(dst, t.Cost)
		}
		if flags&subState == 0 {
			dst = binary.AppendVarint(dst, t.StateSize)
		}
		if flags&subNil == 0 {
			var err error
			if dst, err = tuple.AppendValue(dst, t.Value); err != nil {
				panic(err)
			}
		}
	}
	return dst
}

// The hoists the one-pass encoder checks, and where in a chunk the
// tuple breaking one sits.
var (
	hoists    = []string{"none", "cost", "state", "value", "seq"}
	positions = []string{"first", "middle", "last"}
)

// breakChunk draws an engine-shaped chunk of n tuples — one cost and one
// state size (from the varint edges as often as not), nil values, seqs
// that never decrease — in which the tuple at position breaks hoist: a
// cost or state size of its own, a non-nil value, or a seq below the
// one before it (first: above the one after it). It reports whether the
// break took effect: a one-tuple chunk cannot break a cost, state size
// or seq.
func breakChunk(r *fuzzRNG, n int, hoist, position string) ([]tuple.Tuple, bool) {
	s := func() int64 {
		if r.intn(2) == 0 {
			v := varintEdges[r.intn(len(varintEdges))]
			return int64(v>>1) ^ -int64(v&1)
		}
		return 1
	}
	cost, size := s(), s()
	seq := 1<<20 + r.next()%(1<<61) // room to fall below, none to wrap
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{Key: tuple.Key(varintEdges[r.intn(len(varintEdges))] >> r.intn(64)), Cost: cost, StateSize: size, Seq: seq}
		seq += []uint64{0, 1, 1, 1, 0x7f, 0x80, 0x4000, 1 << 40}[r.intn(8)]
	}
	if n == 0 || hoist == "none" {
		return ts, false
	}
	j := map[string]int{"first": 0, "middle": n / 2, "last": n - 1}[position]
	t := &ts[j]
	switch hoist {
	case "cost":
		t.Cost += 1 + int64(r.intn(1000))
	case "state":
		t.StateSize -= 1 + int64(r.intn(1000))
	case "value":
		t.Value = []any{int64(-7), "payload", []tuple.Key{1, 1 << 40}, 2.5, uint64(0)}[r.intn(5)]
		return ts, true
	case "seq":
		switch {
		case n == 1:
		case j == 0:
			t.Seq = ts[1].Seq + 1 + uint64(r.intn(1000))
		default:
			t.Seq = ts[j-1].Seq - 1 - uint64(r.intn(1000))
		}
	}
	return ts, n > 1
}

// TestOnePassMatchesTwoPass pins the one-pass encoder to the two-pass
// reference: engine-shaped chunks of 1–1024 tuples, each with one tuple
// (first, in the middle or last) breaking one hoist, or none, encode to
// the reference's bytes, set every flag exactly when no break took
// effect, and decode to their input. Every hoist is broken at every
// position.
func TestOnePassMatchesTwoPass(t *testing.T) {
	r := &fuzzRNG{s: 0x1a55}
	drawn := map[string]int{}
	for round := 0; round < 1500; round++ {
		n := 1 + r.intn(1024)
		if r.intn(2) == 0 {
			n = 1 + r.intn(8)
		}
		hoist, position := hoists[r.intn(len(hoists))], positions[r.intn(len(positions))]
		ts, broken := breakChunk(r, n, hoist, position)
		what := fmt.Sprintf("round %d: %d tuples, %s broken %s", round, n, hoist, position)
		drawn[hoist+" "+position]++

		got, err := AppendBatchChunk([]byte{0xee}, ts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := refTwoPassAppend([]byte{0xee}, ts); !bytes.Equal(got, want) {
			t.Fatalf("%s: one pass wrote\n % x\nthe two-pass reference\n % x", what, got, want)
		}
		if flags := got[subHeaderLen]; (flags == subKnown) == broken {
			t.Fatalf("%s: flags %#x, break took effect: %v", what, flags, broken)
		}

		frame := append(AppendBatchHeader(nil), got[1:]...)
		PatchBatchHeader(frame, 1)
		m, err := NewFramedCodec(readerOnly{bytes.NewReader(framed(frame))}).Recv()
		if err != nil {
			t.Fatalf("%s: Recv: %v", what, err)
		}
		if !sameTuples(ts, m.Batch.Tuples) {
			t.Fatalf("%s: decoded\n %+v\nwant\n %+v", what, m.Batch.Tuples, ts)
		}
	}
	for _, h := range hoists {
		for _, p := range positions {
			if drawn[h+" "+p] == 0 {
				t.Fatalf("%s never broken %s", h, p)
			}
		}
	}
}

// varintEdges sit on both sides of every encoded-length boundary the
// inlined one- and two-byte cases decide.
var varintEdges = []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1<<63 - 1, 1 << 63, math.MaxUint64}

// rowChunk draws one chunk of n tuples. Each field is, per chunk, either
// shared by every tuple or drawn per tuple — from the varint edges or
// small steady-state values, every value tag in turn — and the seqs
// either never decrease or are drawn at random, so every flag is drawn
// both set and clear.
func rowChunk(r *fuzzRNG, n int) []tuple.Tuple {
	u := func() uint64 {
		if r.intn(3) == 0 {
			return varintEdges[r.intn(len(varintEdges))]
		}
		return r.next() % 300
	}
	// Signed fields: the same edges as zigzag images, so min-int64 and
	// ±0x40 (where a zigzag varint grows a byte) are drawn.
	s := func() int64 { v := u(); return int64(v>>1) ^ -int64(v&1) }
	value := func() any {
		switch r.intn(9) {
		case 0:
			return nil
		case 1:
			return s()
		case 2:
			return int(s())
		case 3:
			return u()
		case 4:
			return math.Float64frombits(r.next())
		case 5:
			return "payload"
		case 6:
			return []byte{1, 2, 3}
		case 7:
			return tuple.Key(u())
		default:
			return []tuple.Key{tuple.Key(u()), tuple.Key(u())}
		}
	}
	shared := r.intn(8) // bit f: field f is shared by the chunk
	first := tuple.Tuple{Cost: s(), StateSize: s()}
	nilValues := shared&4 != 0
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		t := first
		t.Key, t.Seq = tuple.Key(u()), u()
		if shared&1 == 0 {
			t.Cost = s()
		}
		if shared&2 == 0 {
			t.StateSize = s()
		}
		if !nilValues {
			t.Value = value()
		}
		ts[i] = t
	}
	if r.intn(2) == 0 {
		slices.SortFunc(ts, func(a, b tuple.Tuple) int { return cmp.Compare(a.Seq, b.Seq) })
	}
	return ts
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
		chunks[i] = rowChunk(r, r.intn(12))
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

// TestBatchRowRoundTrip is the flagged layout's model test: random
// frames of 1–40 chunks, each mixing shared and varying fields, over
// every value tag, rising and unordered seqs and the varint edges,
// decode to their input; no chunk is more than its flags byte longer
// than the every-field row, and one that hoists a field is not longer
// at all; and the frames reach the callback decoder and Recv as the
// same chunk sequence. Every flag is drawn set and clear.
func TestBatchRowRoundTrip(t *testing.T) {
	r := &fuzzRNG{s: 0x70a5}
	var set, cleared byte
	for round := 0; round < 200; round++ {
		nchunks := 1 + r.intn(40)
		frame, chunks := randomFrame(r, nchunks)

		ref, hoisted := AppendBatchHeader(nil), false
		for i, ch := range chunks {
			ref = refRowAppend(ref, ch)
			sub, err := AppendBatchChunk(nil, ch)
			if err != nil {
				t.Fatal(err)
			}
			refLen := len(refRowAppend(nil, ch))
			if len(sub) > refLen+1 {
				t.Fatalf("round %d chunk %d: %d bytes, every-field rows %d", round, i, len(sub), refLen)
			}
			if len(ch) == 0 {
				continue
			}
			flags := sub[subHeaderLen-1]
			set, cleared = set|flags, cleared|^flags
			if len(ch) >= 2 && flags&^subSeqDelta != 0 {
				hoisted = true
				if len(sub) > refLen {
					t.Fatalf("round %d chunk %d hoists %#x but is %d bytes, every-field rows %d", round, i, flags, len(sub), refLen)
				}
			}
		}
		if len(frame) > len(ref)+nchunks || hoisted && len(frame) >= len(ref)+nchunks {
			t.Fatalf("round %d: frame is %d bytes, every-field rows %d + %d flags bytes (hoisted: %v)", round, len(frame), len(ref), nchunks, hoisted)
		}

		recv := NewFramedCodec(readerOnly{bytes.NewReader(framed(frame))})
		m, err := recv.Recv()
		if err != nil {
			t.Fatalf("round %d: Recv: %v", round, err)
		}
		var viaRecv [][]tuple.Tuple
		m.Batch.Chunks(func(ts []tuple.Tuple) { viaRecv = append(viaRecv, append([]tuple.Tuple(nil), ts...)) })

		// The callback decoder, with a flush behind the frame to stop it.
		stream := append(framed(frame), framed([]byte{kindFlush, 0, 0, 0, 0, 0, 0, 0, 9})...)
		fed := NewFramedCodec(readerOnly{bytes.NewReader(stream)})
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
	if set != subKnown || cleared&subKnown != subKnown {
		t.Fatalf("flags drawn set %#x, clear %#x; want every bit of %#x both ways", set, cleared&subKnown, subKnown)
	}
}

// TestBatchRowTruncation cuts valid frames' payloads at every byte
// offset (the length prefix rewritten to match, as a hostile sender
// would): whatever is left must fail as ErrBinaryFrame, under Recv and
// under the callback decoder alike. One frame mixes chunk shapes; the
// other is one engine-shaped chunk, every flag set.
func TestBatchRowTruncation(t *testing.T) {
	r := &fuzzRNG{s: 0xc07}
	mixed, _ := randomFrame(r, 5)
	chunk := make([]tuple.Tuple, 40)
	for i := range chunk {
		chunk[i] = tuple.Tuple{Key: tuple.Key(r.next() >> (r.next() % 64)), Cost: 1, StateSize: 1, Seq: uint64(i * i * i)}
	}
	engine, err := AppendBatchChunk(AppendBatchHeader(nil), chunk)
	if err != nil {
		t.Fatal(err)
	}
	PatchBatchHeader(engine, 1)
	if engine[batchHeaderLen+subHeaderLen-1] != subKnown {
		t.Fatalf("engine-shaped chunk encoded with flags %#x", engine[batchHeaderLen+subHeaderLen-1])
	}
	for _, frame := range [][]byte{mixed, engine} {
		truncate(t, frame)
	}
}

func truncate(t *testing.T, frame []byte) {
	for cut := 0; cut < len(frame); cut++ {
		for _, feed := range []func([]tuple.Tuple){nil, func([]tuple.Tuple) {}} {
			c := NewFramedCodec(readerOnly{bytes.NewReader(framed(frame[:cut]))})
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

// TestHostileCountReservesLittle: a tuple count is checked only against
// minRowLen bytes a row, a 24th of a decoded tuple, so a 64 KiB frame can
// claim some 32 000 rows. Claiming them — or every row a 32-bit count
// names — over rows that do not decode must fail as ErrBinaryFrame
// having allocated well under what the count would size. So must a
// worker's Stats and a StageAssign claiming 2^32 entries, and a
// migrated key's state payload claiming 2^32 buckets or entries.
func TestHostileCountReservesLittle(t *testing.T) {
	const body = 64 << 10
	rows := bytes.Repeat([]byte{0xff}, body) // an overlong key varint
	bounded := func(what string, decode func() error) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s decoded", what)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("%s allocated %d bytes", what, n)
		}
	}
	recv := func(payload []byte) func() error {
		return func() error {
			_, err := NewFramedCodec(readerOnly{bytes.NewReader(framed(payload))}).Recv()
			if !errors.Is(err, ErrBinaryFrame) {
				return fmt.Errorf("%v; want ErrBinaryFrame", err)
			}
			return err
		}
	}
	for _, nt := range []uint32{body / minRowLen, math.MaxUint32} {
		payload := binary.BigEndian.AppendUint32(AppendBatchHeader(nil), nt)
		PatchBatchHeader(payload, 1)
		payload = append(append(payload, 0), rows...)
		bounded(fmt.Sprintf("tuple count %d", nt), recv(payload))
	}
	bounded("stats", recv(append(hostileStatsCount, rows...)))
	bounded("assign", recv(append(hostileAssignName, rows...)))
	for what, payload := range map[string][]byte{
		"state buckets": {1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10},
		"state entries": {1, 0, 0, 1, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10},
	} {
		bounded(what, func() error {
			_, _, err := state.Codec{}.Decode(append(payload, rows...))
			return err
		})
	}
}

// TestScalarWireAllocatesNothing pins the steady state of both
// directions: a scalar batch (nil and small-int64 values) is sent,
// received and streamed to a feed without one allocation once the
// retained buffers have grown.
func TestScalarWireAllocatesNothing(t *testing.T) {
	msg := &Message{Batch: &TupleBatch{Tuples: benchBatch(256, "scalar")}}
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

// TestControlRoundSendsNoGob pins the one encoding: every message kind
// leaves as a frame kind of its own, the session's included, and none
// behind 0x00, the gob frame of versions 6 and 7.
func TestControlRoundSendsNoGob(t *testing.T) {
	want := map[string]byte{
		"report": kindReport, "commands": kindCommands, "ack": kindAck, "batch": kindBatch,
		"hello": kindHello, "welcome": kindWelcome, "assign": kindAssign, "start": kindStart,
		"close": kindClose, "harvest": kindHarvestReq, "harvested": kindHarvestDone,
		"flush": kindFlush, "shutdown": kindShutdown, "stats": kindStats,
	}
	for kind := 0; kind < 19; kind++ {
		for _, n := range []int{0, 1, 17} {
			var wire bytes.Buffer
			c := NewFramedCodec(&wire)
			m := buildMessage(uint64(kind*53+n), kind, n)
			if err := c.Send(m); err != nil {
				t.Fatalf("send %s: %v", m.Kind(), err)
			}
			if k := wire.Bytes()[frameHeaderLen]; k == 0 || k != want[m.Kind()] {
				t.Fatalf("%s (n=%d) went out as kind %#x, want %#x", m.Kind(), n, k, want[m.Kind()])
			}
		}
	}
}
