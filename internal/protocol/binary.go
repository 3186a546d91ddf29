package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/stats"
	"repro/internal/tuple"
)

// The wire format, spoken by every Codec from its first byte: a
// hand-rolled, zero-reflection codec for every message a steady-state
// interval sends — the data plane (TupleBatch, Flush), the interval
// drive (StartInterval, CloseStage, HarvestReq, HarvestDone) and the
// whole control round (LoadReport, PlanAnnounce, Resize, SplitAnnounce,
// StateTransfer, Ack, Resume). It matters for the small ones too: a gob
// frame is self-contained — a fresh encoder re-sends type descriptors
// and a fresh decoder recompiles its engines, several thousand
// allocations per frame — and a plan with its transfers goes out most
// intervals. What is sent once per session (the Hello/Welcome handshake,
// placement, shutdown stats) rides as a self-contained gob stream behind
// the same kind dispatch, so the handshake needs no codec of its own.
//
// Every frame (inside the 4-byte length framing of framing.go) begins
// with one kind byte:
//
//	frame    := len(4,BE) kind payload
//	kind     := 0x00 gob | 0x01 batch | 0x02 flush | 0x03 report
//	          | 0x04 ack | 0x05 resume
//	          | 0x06 start | 0x07 close | 0x08 harvest | 0x09 harvested
//	          | 0x0a plan | 0x0b resize | 0x0c split | 0x0d state
//
// A batch frame coalesces one or more FeedBatch-sized chunks; the
// sub-batch boundaries are preserved so the receiver replays the exact
// FeedBatch call sequence the sender issued (chunk boundaries drive
// round-robin shuffle routing and arrival accounting, which the
// equivalence pins depend on):
//
//	batch    := nsub(4,BE) sub*
//	sub      := ntuples(4,BE) flags(1) [cost] [state] [tick] [streamlen stream] row{ntuples}
//	row      := key seq [cost] [state] [tick] [streamlen stream] [value]
//
// A row is one tuple, so decode is one pass that touches every tuple
// once (encode first scans a chunk for its flags), and a row carries
// only what varies inside its chunk. The flags byte says what the
// encoder found constant: a field every tuple of the chunk shares
// (cost, state size, emit tick, stream) is written once in the
// sub-batch header instead of in every row; a chunk of nil values
// leaves the value out of its rows; a chunk whose seqs never decrease
// sends each seq as the delta from the row before. The engine's own
// chunks — cost 1, state 1, one emit tick, one stream, nil values,
// rising seqs — are a key and a one-byte delta per tuple, and no chunk
// is more than the flags byte longer than a row that carried every
// field. Fields are varint-packed: keys and seqs as
// uvarints, costs, state sizes and emit ticks as zigzag varints. The
// stream is a length-prefixed string; the value carries a one-byte
// type tag covering the registered basic types, with a per-value
// self-contained gob blob as the escape hatch for exotic application
// types.
//
//	plan     := interval algolen algo gentime table moved
//	table, moved := n (key dest){n}
//	resize   := interval delta
//	split    := interval n (key fan){n}
//	state    := key from to size paylen payload
//
// Decode never trusts a length: every count is bounds-checked against
// the remaining payload before any allocation, and every error path
// returns ErrBinaryFrame-wrapped errors — hostile input can make the
// codec fail, never panic or over-allocate.

// Frame kind bytes.
const (
	kindGob byte = iota
	kindBatch
	kindFlush
	kindReport
	kindAck
	kindResume
	kindStart
	kindClose
	kindHarvestReq
	kindHarvestDone
	kindPlan
	kindResize
	kindSplit
	kindState
)

// batchHeaderLen is the fixed-width batch frame header: the kind byte
// plus a 4-byte big-endian sub-batch count, patched in place when the
// coalescing sender seals the frame.
const batchHeaderLen = 5

// subHeaderLen is the fixed-width per-sub-batch header (tuple count and
// flags).
const subHeaderLen = 5

// Sub-batch flag bits. The first four hoist a field every tuple of the
// chunk shares into the sub-batch header; subNil drops the value from
// every row; subSeqDelta makes a row's seq the delta from the previous
// row's (the first row's from zero).
const (
	subCost byte = 1 << iota
	subState
	subTick
	subStream
	subNil
	subSeqDelta

	subKnown = subCost | subState | subTick | subStream | subNil | subSeqDelta
)

// ErrBinaryFrame tags every decode failure of the binary codec: a
// truncated row, a hostile count, an unknown kind or value tag.
var ErrBinaryFrame = errors.New("protocol: malformed binary frame")

// Value type tags for tuple.Value. The tagged set covers every concrete
// type the in-tree workloads and operators put in tuples; anything else
// falls back to a per-value gob blob (tag valGob), which requires the
// type to be gob-registered (state.RegisterValue).
const (
	valNil byte = iota
	valInt64
	valInt
	valUint64
	valFloat64
	valString
	valBytes
	valKey
	valKeys
	valGob
)

// valueBox wraps an interface value for the gob escape hatch: gob can
// only encode interface-typed data through a concrete wrapper field.
type valueBox struct{ V any }

// appendUvarint is binary.AppendUvarint with the one- and two-byte
// cases — nearly every steady-state field — inlined ahead of the loop.
func appendUvarint(dst []byte, v uint64) []byte {
	if v < 1<<7 {
		return append(dst, byte(v))
	}
	if v < 1<<14 {
		return append(dst, byte(v)|0x80, byte(v>>7))
	}
	return binary.AppendUvarint(dst, v)
}

// appendSvarint zigzag-maps signed values so small negatives stay small
// on the wire.
func appendSvarint(dst []byte, v int64) []byte {
	return appendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintAt decodes the uvarint at p[off:] and returns it with the
// offset past it. A truncated or overlong varint returns an offset past
// len(p), and so does any call that starts there: a row reads its
// fields back to back and checks once.
func uvarintAt(p []byte, off int) (uint64, int) {
	if off >= len(p) {
		return 0, len(p) + 1
	}
	if p[off] < 0x80 {
		return uint64(p[off]), off + 1
	}
	if off+1 < len(p) && p[off+1] < 0x80 {
		return uint64(p[off]&0x7f) | uint64(p[off+1])<<7, off + 2
	}
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, len(p) + 1
	}
	return v, off + n
}

// cursor is the bounds-checked decode reader over one frame payload. Its
// first failure sticks: err records it, the rest of the payload is
// dropped and every later read returns zero, so a decoder reads its
// fields in sequence and asks done once. Nothing is sized by a count
// that count has not checked against the bytes left, and a count that
// fails is zero.
type cursor struct {
	p   []byte
	off int
	err error
}

func (c *cursor) rem() int { return len(c.p) - c.off }

func (c *cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d of %d", ErrBinaryFrame, fmt.Sprintf(format, args...), c.off, len(c.p))
	}
	c.off = len(c.p)
}

// done ends a frame's decode: its first failure, or bytes left over.
func (c *cursor) done() error {
	if c.err == nil && c.rem() != 0 {
		c.fail("%d trailing bytes", c.rem())
	}
	return c.err
}

func (c *cursor) byte() byte {
	if c.off >= len(c.p) {
		c.fail("truncated byte")
		return 0
	}
	b := c.p[c.off]
	c.off++
	return b
}

// take returns the next n bytes, or nil (and fails) if they are not there.
func (c *cursor) take(n int) []byte {
	if n < 0 || c.rem() < n {
		c.fail("truncated %d-byte field", n)
		return nil
	}
	b := c.p[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u32() int {
	if b := c.take(4); b != nil {
		return int(binary.BigEndian.Uint32(b))
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (c *cursor) uvarint() uint64 {
	v, off := uvarintAt(c.p, c.off)
	if off > len(c.p) {
		c.fail("bad uvarint")
		return 0
	}
	c.off = off
	return v
}

func (c *cursor) svarint() int64 { return unzig(c.uvarint()) }

// count reads the count of a list whose elements cost at least min bytes
// each on the wire: one the remaining bytes cannot hold is hostile and
// fails before any allocation is sized from it.
func (c *cursor) count(min int) int {
	v := c.uvarint()
	if v > uint64(c.rem()/min) {
		c.fail("count %d of %d-byte elements exceeds %d remaining bytes", v, min, c.rem())
		return 0
	}
	return int(v)
}

// appendValue encodes one tuple.Value. The error path is reachable only
// through the gob escape hatch (an unregistered exotic type).
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case int64:
		return appendSvarint(append(dst, valInt64), x), nil
	case int:
		return appendSvarint(append(dst, valInt), int64(x)), nil
	case uint64:
		return binary.AppendUvarint(append(dst, valUint64), x), nil
	case float64:
		return binary.BigEndian.AppendUint64(append(dst, valFloat64), math.Float64bits(x)), nil
	case string:
		dst = binary.AppendUvarint(append(dst, valString), uint64(len(x)))
		return append(dst, x...), nil
	case []byte:
		dst = binary.AppendUvarint(append(dst, valBytes), uint64(len(x)))
		return append(dst, x...), nil
	case tuple.Key:
		return binary.AppendUvarint(append(dst, valKey), uint64(x)), nil
	case []tuple.Key:
		dst = binary.AppendUvarint(append(dst, valKeys), uint64(len(x)))
		for _, k := range x {
			dst = binary.AppendUvarint(dst, uint64(k))
		}
		return dst, nil
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&valueBox{V: v}); err != nil {
			return nil, fmt.Errorf("protocol: binary codec cannot carry tuple value %T: %w", v, err)
		}
		dst = binary.AppendUvarint(append(dst, valGob), uint64(buf.Len()))
		return append(dst, buf.Bytes()...), nil
	}
}

// value decodes one tuple.Value; the caller checks c.err.
func (c *cursor) value() any {
	switch tag := c.byte(); tag {
	case valNil:
		return nil
	case valInt64:
		return c.svarint()
	case valInt:
		return int(c.svarint())
	case valUint64:
		return c.uvarint()
	case valFloat64:
		return math.Float64frombits(c.u64())
	case valString:
		return string(c.take(c.count(1)))
	case valBytes:
		return append([]byte(nil), c.take(c.count(1))...)
	case valKey:
		return tuple.Key(c.uvarint())
	case valKeys:
		return c.keys()
	case valGob:
		var box valueBox
		if b := c.take(c.count(1)); c.err == nil {
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&box); err != nil {
				c.fail("gob value: %v", err)
			}
		}
		return box.V
	default:
		c.fail("unknown value tag %#x", tag)
		return nil
	}
}

// AppendBatchHeader begins a batch frame: the kind byte plus a zeroed
// fixed-width sub-batch count, patched by PatchBatchHeader when the
// frame is sealed. Senders (Codec.Send and the coalescing BatchConn)
// append chunks after it with AppendBatchChunk.
func AppendBatchHeader(dst []byte) []byte {
	return append(dst, kindBatch, 0, 0, 0, 0)
}

// PatchBatchHeader seals a batch frame built on AppendBatchHeader,
// writing the final sub-batch count into the fixed-width header.
func PatchBatchHeader(frame []byte, nsub int) {
	binary.BigEndian.PutUint32(frame[1:batchHeaderLen], uint32(nsub))
}

// AppendBatchChunk appends one FeedBatch chunk as a sub-batch:
// fixed-width tuple count, the flags byte and the fields it hoists,
// then one varint-packed row per tuple of what the flags leave varying.
// It touches no shared codec state, so senders encode concurrently
// outside any connection lock and serialize only the socket write.
func AppendBatchChunk(dst []byte, ts []tuple.Tuple) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ts)))
	if len(ts) == 0 {
		return append(dst, 0), nil
	}
	h := &ts[0]
	flags := chunkFlags(ts)
	dst = append(dst, flags)
	if flags&subCost != 0 {
		dst = appendSvarint(dst, h.Cost)
	}
	if flags&subState != 0 {
		dst = appendSvarint(dst, h.StateSize)
	}
	if flags&subTick != 0 {
		dst = appendSvarint(dst, h.EmitTick)
	}
	if flags&subStream != 0 {
		dst = append(appendUvarint(dst, uint64(len(h.Stream))), h.Stream...)
	}
	var prev uint64
	var err error
	for i := range ts {
		t := &ts[i]
		dst = appendUvarint(dst, uint64(t.Key))
		if flags&subSeqDelta != 0 {
			dst = appendUvarint(dst, t.Seq-prev)
			prev = t.Seq
		} else {
			dst = appendUvarint(dst, t.Seq)
		}
		if flags&subCost == 0 {
			dst = appendSvarint(dst, t.Cost)
		}
		if flags&subState == 0 {
			dst = appendSvarint(dst, t.StateSize)
		}
		if flags&subTick == 0 {
			dst = appendSvarint(dst, t.EmitTick)
		}
		if flags&subStream == 0 {
			dst = append(appendUvarint(dst, uint64(len(t.Stream))), t.Stream...)
		}
		if flags&subNil != 0 {
			continue
		}
		if t.Value == nil {
			dst = append(dst, valNil)
		} else if dst, err = appendValue(dst, t.Value); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// chunkFlags scans a non-empty chunk for what its rows can leave out.
func chunkFlags(ts []tuple.Tuple) byte {
	h := &ts[0]
	flags := subKnown
	if h.Value != nil {
		flags &^= subNil
	}
	// A flag once cleared is not tested again: a field that alternates
	// would otherwise mispredict its branch every other tuple.
	for i := 1; i < len(ts) && flags != 0; i++ {
		t := &ts[i]
		if flags&subCost != 0 && t.Cost != h.Cost {
			flags &^= subCost
		}
		if flags&subState != 0 && t.StateSize != h.StateSize {
			flags &^= subState
		}
		if flags&subTick != 0 && t.EmitTick != h.EmitTick {
			flags &^= subTick
		}
		if flags&subStream != 0 && t.Stream != h.Stream {
			flags &^= subStream
		}
		if flags&subNil != 0 && t.Value != nil {
			flags &^= subNil
		}
		if flags&subSeqDelta != 0 && t.Seq < ts[i-1].Seq {
			flags &^= subSeqDelta
		}
	}
	return flags
}

// minRowLen is the least a tuple costs on the wire: its key and its seq,
// every other field hoisted into the sub-batch header.
const minRowLen = 2

// rowReserve caps the tuples a sub-batch reserves before its rows
// decode. The count is checked against minRowLen bytes a row, and a
// decoded tuple is 36 times that, so the count alone must not size the
// buffer: rows past the reservation grow it as they decode.
const rowReserve = 4096

// decodeBatchChunk decodes one sub-batch into dst (appending), returning
// the grown slice; the caller checks cur.err. Tuples land in
// codec-retained storage; every field of every appended tuple is
// written, so no zeroing is needed.
func (c *Codec) decodeBatchChunk(cur *cursor, dst []tuple.Tuple) []tuple.Tuple {
	nt := cur.u32()
	flags := cur.byte()
	if flags&^subKnown != 0 {
		cur.fail("unknown sub-batch flags %#x", flags)
		return dst
	}
	var h tuple.Tuple // the hoisted fields
	if flags&subCost != 0 {
		h.Cost = cur.svarint()
	}
	if flags&subState != 0 {
		h.StateSize = cur.svarint()
	}
	if flags&subTick != 0 {
		h.EmitTick = cur.svarint()
	}
	if flags&subStream != 0 {
		h.Stream = c.internStream(cur.take(cur.count(1)))
	}
	// Reject hostile counts before decoding a row.
	if nt > cur.rem()/minRowLen {
		cur.fail("tuple count %d exceeds frame", nt)
		return dst
	}
	var prev uint64
	for done := 0; done < nt && cur.err == nil; {
		n := min(nt-done, rowReserve)
		dst = slices.Grow(dst, n)
		sub := dst[len(dst) : len(dst)+n]
		dst = dst[:len(dst)+n]
		prev = c.rows(cur, sub, flags, &h, prev, done, nt)
		done += n
	}
	return dst
}

// rows decodes a chunk's rows into sub: the fields flags leaves in them,
// the rest from h. It returns the last seq; rows0 and nt number the rows
// for the error. Every row carries a key and a seq, so their one-byte
// case is spelled out (a helper that falls back to the general decoder
// is past the compiler's inlining budget): the engine chunk's round trip
// in BenchmarkTupleBatchCodec is a fifth faster for it. What else a row
// carries goes through the cursor.
func (c *Codec) rows(cur *cursor, sub []tuple.Tuple, flags byte, h *tuple.Tuple, prev uint64, rows0, nt int) uint64 {
	p := cur.p
	for i := range sub {
		var key, seq uint64
		off := cur.off
		if off < len(p) && p[off] < 0x80 {
			key, off = uint64(p[off]), off+1
		} else {
			key, off = uvarintAt(p, off)
		}
		if off < len(p) && p[off] < 0x80 {
			seq, off = uint64(p[off]), off+1
		} else {
			seq, off = uvarintAt(p, off)
		}
		if off > len(p) {
			cur.fail("truncated row %d of %d", rows0+i, nt)
			return prev
		}
		cur.off = off
		if flags&subSeqDelta != 0 {
			seq += prev
			prev = seq
		}
		t := &sub[i]
		t.Key, t.Seq, t.Cost, t.StateSize, t.EmitTick, t.Stream = tuple.Key(key), seq, h.Cost, h.StateSize, h.EmitTick, h.Stream
		if flags&subCost == 0 {
			t.Cost = cur.svarint()
		}
		if flags&subState == 0 {
			t.StateSize = cur.svarint()
		}
		if flags&subTick == 0 {
			t.EmitTick = cur.svarint()
		}
		if flags&subStream == 0 {
			t.Stream = c.internStream(cur.take(cur.count(1)))
		}
		t.Value = nil
		if flags&subNil == 0 {
			t.Value = cur.value()
		}
		if cur.err != nil {
			break
		}
	}
	return prev
}

// internStream maps a decoded stream label to a shared string. Stream
// names are drawn from a tiny fixed vocabulary ("", "counts", "R", …),
// so a small cache removes the per-tuple string allocation; the cache
// is bounded so hostile input cannot grow it without limit.
func (c *Codec) internStream(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if c.strs == nil {
		c.strs = make(map[string]string, 8)
	}
	if len(c.strs) < 256 {
		c.strs[s] = s
	}
	return s
}

// decodeBatchFrame decodes a batch frame body chunk by chunk into the
// codec's retained tuple buffer; the caller checks cur.done. With a
// feed, each chunk goes to it as soon as it is decoded and the next
// overwrites it, so the buffer stays one chunk long; a frame that fails
// at a later chunk has fed its earlier ones. Without one the chunks
// accumulate into the retained hot batch: with one sub-batch it
// carries no Bounds (the uncoalesced form round-trips exactly); with
// several, Bounds lists the sub-batch end offsets so the receiver
// replays the sender's FeedBatch call sequence.
func (c *Codec) decodeBatchFrame(cur *cursor, feed func([]tuple.Tuple)) {
	nsub := cur.u32()
	if nsub < 0 || nsub > cur.rem()/subHeaderLen+1 {
		cur.fail("sub-batch count %d exceeds frame", nsub)
		return
	}
	tup := c.tup[:0]
	bounds := c.bounds[:0]
	for i := 0; i < nsub; i++ {
		if tup = c.decodeBatchChunk(cur, tup); cur.err != nil {
			break
		}
		if feed != nil {
			feed(tup)
			tup = tup[:0]
		} else {
			bounds = append(bounds, len(tup))
		}
	}
	c.tup, c.bounds = tup, bounds
	c.hotBatch.Tuples = tup
	c.hotBatch.Bounds = nil
	if nsub != 1 {
		c.hotBatch.Bounds = bounds
	}
}

// appendReportKeys encodes a report's run: six varints per entry (key,
// cost, frequency, windowed memory, hash destination, destination).
func appendReportKeys(dst []byte, ks []stats.KeyStat) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ks)))
	for i := range ks {
		k := &ks[i]
		dst = binary.AppendUvarint(dst, uint64(k.Key))
		dst = appendSvarint(dst, k.Cost)
		dst = appendSvarint(dst, k.Freq)
		dst = appendSvarint(dst, k.Mem)
		dst = appendSvarint(dst, int64(k.Hash))
		dst = appendSvarint(dst, int64(k.Dest))
	}
	return dst
}

// reportKeys decodes a report's run onto buf, which it returns grown.
// Destinations and order are the receiver's to check
// (LoadReport.CheckMerged) — the frame does not know the stage yet.
func (c *cursor) reportKeys(buf []stats.KeyStat) []stats.KeyStat {
	n := c.count(6) // six varints per entry
	buf = slices.Grow(buf, n)[:n]
	for i := range buf {
		ks := &buf[i]
		ks.Key = tuple.Key(c.uvarint())
		ks.Cost = c.svarint()
		ks.Freq = c.svarint()
		ks.Mem = c.svarint()
		ks.Hash = int(c.svarint())
		ks.Dest = int(c.svarint())
	}
	return buf
}

func appendKeys(dst []byte, ks []tuple.Key) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	return dst
}

func (c *cursor) keys() []tuple.Key {
	n := c.count(1)
	if n == 0 {
		return nil
	}
	out := make([]tuple.Key, n)
	for i := range out {
		out[i] = tuple.Key(c.uvarint())
	}
	return out
}

// Report flag bits (one byte on the wire).
const (
	repRoutable  = 1 << 0
	repResizable = 1 << 1
)

// appendReport encodes a LoadReport: the interval, the flag byte, the
// run, the split set, then the stage context scalars.
func appendReport(dst []byte, r *LoadReport) []byte {
	dst = append(dst, kindReport)
	dst = appendSvarint(dst, r.Interval)
	var flags byte
	if r.Routable {
		flags |= repRoutable
	}
	if r.Resizable {
		flags |= repResizable
	}
	dst = append(dst, flags)
	dst = appendReportKeys(dst, r.Keys)
	dst = appendKeys(dst, r.Split)
	dst = appendSvarint(dst, int64(r.Tasks))
	dst = appendSvarint(dst, r.Capacity)
	dst = appendSvarint(dst, r.Emitted)
	dst = appendSvarint(dst, r.Budget)
	return dst
}

// decodeReport decodes the run into one of two buffers the codec
// alternates between — it is the whole population every interval, and
// the server is done with it when the round closes — so it stays intact
// until the second following report, the stage snapshot's own lifetime.
// The rest of the report is freshly allocated.
func (c *Codec) decodeReport(cur *cursor) *LoadReport {
	r := &LoadReport{Interval: cur.svarint()}
	flags := cur.byte()
	r.Routable = flags&repRoutable != 0
	r.Resizable = flags&repResizable != 0
	buf := &c.merged[c.mergedN&1]
	c.mergedN++
	*buf = cur.reportKeys((*buf)[:0])
	r.Keys = *buf
	r.Split = cur.keys()
	r.Tasks = int(cur.svarint())
	r.Capacity = cur.svarint()
	r.Emitted = cur.svarint()
	r.Budget = cur.svarint()
	return r
}

// appendInt64s encodes a count-prefixed zigzag-varint list.
func appendInt64s(dst []byte, vs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendSvarint(dst, v)
	}
	return dst
}

func (c *cursor) int64s() []int64 {
	n := c.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = c.svarint()
	}
	return vs
}

// HarvestDone flag bits (one byte on the wire).
const (
	hdRebalanced byte = 1 << iota
)

// appendHarvestDone encodes the per-interval stage-close summary: the
// integers as zigzag varints, the row's measurements as raw float bits
// (they are ratios and durations, not small integers), the backlog as a
// count-prefixed varint list.
func appendHarvestDone(dst []byte, h *HarvestDone) []byte {
	r := &h.Row
	dst = appendSvarints(dst, kindHarvestDone, int64(h.Stage), h.Interval, r.Index)
	var flags byte
	if r.Rebalanced {
		flags |= hdRebalanced
	}
	dst = append(dst, flags)
	for _, f := range [...]float64{r.Throughput, r.LatencyMs, r.Skewness, r.MaxTheta, r.MigrationPct, r.PlanMs} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	}
	for _, v := range [...]int64{int64(r.TableSize), r.Emitted, int64(r.ScaleOuts), int64(r.ScaleIns)} {
		dst = appendSvarint(dst, v)
	}
	dst = appendInt64s(dst, h.Backlog)
	return appendSvarint(dst, h.Processed)
}

// decodeHarvestDone allocates fresh: the coordinator throttles on the
// backlog after further Recvs on the session may have run.
func decodeHarvestDone(cur *cursor) *HarvestDone {
	h := &HarvestDone{Stage: int(cur.svarint()), Interval: cur.svarint()}
	r := &h.Row
	r.Index = cur.svarint()
	r.Rebalanced = cur.byte()&hdRebalanced != 0
	for _, f := range [...]*float64{&r.Throughput, &r.LatencyMs, &r.Skewness, &r.MaxTheta, &r.MigrationPct, &r.PlanMs} {
		*f = math.Float64frombits(cur.u64())
	}
	r.TableSize = int(cur.svarint())
	r.Emitted = cur.svarint()
	r.ScaleOuts = int(cur.svarint())
	r.ScaleIns = int(cur.svarint())
	h.Backlog = cur.int64s()
	h.Processed = cur.svarint()
	return h
}

// appendPairs/pairs carry a list of (key, small integer) entries: a
// plan's routes (key, destination), a split set (key, fan).
func appendPairs[T any](dst []byte, es []T, get func(T) (tuple.Key, int)) []byte {
	dst = appendUvarint(dst, uint64(len(es)))
	for _, e := range es {
		k, v := get(e)
		dst = appendSvarint(appendUvarint(dst, uint64(k)), int64(v))
	}
	return dst
}

func pairs[T any](c *cursor, mk func(tuple.Key, int) T) []T {
	n := c.count(2) // two varints per entry
	if n == 0 {
		return nil
	}
	es := make([]T, n)
	for i := range es {
		es[i] = mk(tuple.Key(c.uvarint()), int(c.svarint()))
	}
	return es
}

func routePair(e RouteEntry) (tuple.Key, int) { return e.Key, e.Dest }
func splitPair(e SplitEntry) (tuple.Key, int) { return e.Key, e.Fan }
func mkRoute(k tuple.Key, d int) RouteEntry   { return RouteEntry{Key: k, Dest: d} }
func mkSplit(k tuple.Key, f int) SplitEntry   { return SplitEntry{Key: k, Fan: f} }

func appendPlan(dst []byte, a *PlanAnnounce) []byte {
	dst = appendSvarint(append(dst, kindPlan), a.Interval)
	dst = appendUvarint(dst, uint64(len(a.Algorithm)))
	dst = append(dst, a.Algorithm...)
	dst = appendSvarint(dst, int64(a.GenTime))
	dst = appendPairs(dst, a.Table, routePair)
	return appendPairs(dst, a.Moved, routePair)
}

func decodePlan(cur *cursor) *PlanAnnounce {
	a := &PlanAnnounce{Interval: cur.svarint()}
	a.Algorithm = string(cur.take(cur.count(1)))
	a.GenTime = time.Duration(cur.svarint())
	a.Table = pairs(cur, mkRoute)
	a.Moved = pairs(cur, mkRoute)
	return a
}

func appendState(dst []byte, s *StateTransfer) []byte {
	dst = appendUvarint(append(dst, kindState), uint64(s.Key))
	dst = appendSvarint(dst, int64(s.From))
	dst = appendSvarint(dst, int64(s.To))
	dst = appendSvarint(dst, s.Size)
	dst = appendUvarint(dst, uint64(len(s.Payload)))
	return append(dst, s.Payload...)
}

// decodeState decodes into the retained envelope: a plan's transfers
// arrive one frame per moved key, and the controller side only counts
// them. Payload aliases the frame.
func (c *Codec) decodeState(cur *cursor) *StateTransfer {
	s := &c.hotState
	s.Key = tuple.Key(cur.uvarint())
	s.From = int(cur.svarint())
	s.To = int(cur.svarint())
	s.Size = cur.svarint()
	s.Payload = nil
	if n := cur.count(1); n > 0 {
		s.Payload = cur.take(n)
	}
	return s
}

// appendMessage appends one message's frame to b: every kind an interval
// sends takes the hand-rolled encoding (into the codec's retained
// scratch, so amortized zero allocations per message); the
// once-per-session kinds become a self-contained gob stream behind
// kindGob.
func appendMessage(b []byte, m *Message) ([]byte, error) {
	switch {
	case m.Batch != nil:
		b = AppendBatchHeader(b)
		nsub := 0
		var err error
		if n := len(m.Batch.Bounds); n > 0 {
			start := 0
			for _, end := range m.Batch.Bounds {
				if end < start || end > len(m.Batch.Tuples) {
					return nil, fmt.Errorf("protocol: batch bounds %v out of range", m.Batch.Bounds)
				}
				if b, err = AppendBatchChunk(b, m.Batch.Tuples[start:end]); err != nil {
					return nil, err
				}
				start = end
				nsub++
			}
		} else {
			if b, err = AppendBatchChunk(b, m.Batch.Tuples); err != nil {
				return nil, err
			}
			nsub = 1
		}
		PatchBatchHeader(b, nsub)
	case m.FlushReq != nil:
		b = binary.BigEndian.AppendUint64(append(b, kindFlush), m.FlushReq.Seq)
	case m.Report != nil:
		b = appendReport(b, m.Report)
	case m.Ack != nil:
		b = appendSvarints(b, kindAck, int64(m.Ack.TaskID), m.Ack.Interval)
	case m.Resume != nil:
		b = appendSvarints(b, kindResume, m.Resume.Interval)
	case m.Start != nil:
		b = appendSvarints(b, kindStart, m.Start.Interval, m.Start.Emit)
	case m.Close != nil:
		b = appendSvarints(b, kindClose, int64(m.Close.Stage))
	case m.Harvest != nil:
		b = appendSvarints(b, kindHarvestReq, int64(m.Harvest.Stage), m.Harvest.Interval, m.Harvest.Emit)
	case m.Harvested != nil:
		b = appendHarvestDone(b, m.Harvested)
	case m.Plan != nil:
		b = appendPlan(b, m.Plan)
	case m.ResizeCmd != nil:
		b = appendSvarints(b, kindResize, m.ResizeCmd.Interval, int64(m.ResizeCmd.Delta))
	case m.Split != nil:
		b = appendSvarint(append(b, kindSplit), m.Split.Interval)
		b = appendPairs(b, m.Split.Set, splitPair)
	case m.State != nil:
		b = appendState(b, m.State)
	default:
		// Rare frame: self-contained gob stream (fresh encoder, so the
		// frame carries its own type descriptors and the decoder needs
		// no cross-frame state).
		buf := bytes.NewBuffer(append(b, kindGob))
		if err := gob.NewEncoder(buf).Encode(m); err != nil {
			return nil, err
		}
		b = buf.Bytes()
	}
	return b, nil
}

// appendSvarints encodes a frame that is its kind and a few scalars.
func appendSvarints(dst []byte, kind byte, vs ...int64) []byte {
	dst = append(dst, kind)
	for _, v := range vs {
		dst = appendSvarint(dst, v)
	}
	return dst
}

// recvFrame reads one frame and dispatches on its kind byte; with a
// feed it hands a batch frame's chunks to it (decodeBatchFrame) and
// returns the batch empty. Batch, Flush and StateTransfer messages reuse
// codec-owned storage — tuples decode into a pooled retained slice,
// mirroring the engine's recycled feed buffers — and are invalidated by
// the next Recv on this codec; the rest are freshly allocated, except a
// report's run (see decodeReport).
func (c *Codec) recvFrame(feed func([]tuple.Tuple)) (*Message, error) {
	p, err := c.fr.frame()
	if err != nil {
		return nil, err
	}
	c.rcvd.Add(int64(len(p)))
	cur := &cursor{p: p[1:]}
	m := &c.hotMsg
	switch kind := p[0]; kind {
	case kindGob:
		m = &Message{}
		if err := gob.NewDecoder(bytes.NewReader(cur.p)).Decode(m); err != nil {
			return nil, fmt.Errorf("%w: gob frame: %v", ErrBinaryFrame, err)
		}
		if m.Kind() == "empty" {
			return nil, fmt.Errorf("%w: gob frame carries no message", ErrBinaryFrame)
		}
		return m, nil
	case kindBatch:
		c.decodeBatchFrame(cur, feed)
		*m = Message{Batch: &c.hotBatch}
	case kindFlush:
		c.hotFlush.Seq = cur.u64()
		*m = Message{FlushReq: &c.hotFlush}
	case kindState:
		*m = Message{State: c.decodeState(cur)}
	case kindReport:
		m = &Message{Report: c.decodeReport(cur)}
	case kindAck:
		m = &Message{Ack: &Ack{TaskID: int(cur.svarint()), Interval: cur.svarint()}}
	case kindResume:
		m = &Message{Resume: &Resume{Interval: cur.svarint()}}
	case kindStart:
		m = &Message{Start: &StartInterval{Interval: cur.svarint(), Emit: cur.svarint()}}
	case kindClose:
		m = &Message{Close: &CloseStage{Stage: int(cur.svarint())}}
	case kindHarvestReq:
		m = &Message{Harvest: &HarvestReq{Stage: int(cur.svarint()), Interval: cur.svarint(), Emit: cur.svarint()}}
	case kindHarvestDone:
		m = &Message{Harvested: decodeHarvestDone(cur)}
	case kindPlan:
		m = &Message{Plan: decodePlan(cur)}
	case kindResize:
		m = &Message{ResizeCmd: &Resize{Interval: cur.svarint(), Delta: int(cur.svarint())}}
	case kindSplit:
		m = &Message{Split: &SplitAnnounce{Interval: cur.svarint(), Set: pairs(cur, mkSplit)}}
	default:
		return nil, fmt.Errorf("%w: unknown frame kind %#x", ErrBinaryFrame, kind)
	}
	if err := cur.done(); err != nil {
		return nil, err
	}
	return m, nil
}
