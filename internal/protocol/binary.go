package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
	"repro/internal/tuple"
)

// The binary wire format: a hand-rolled, zero-reflection codec for the
// messages that dominate the wire in steady state — the data plane
// (TupleBatch, Flush), the per-interval control round (LoadReport, Ack,
// Resume) and the interval drive itself (StartInterval,
// CloseStage, HarvestReq, HarvestDone — one of each per stage per
// interval, which matters because a gob fallback frame is
// self-contained: a fresh encoder re-sends type descriptors and a fresh
// decoder recompiles its engines, several thousand allocations per
// frame). Everything else (handshake, placement, plans,
// state transfers — messages sent once per session or once per command)
// rides as a self-contained gob stream behind a per-frame kind
// dispatch, so no message kind ever needs a binary encoding to cross
// the wire.
//
// Every frame (inside the 4-byte length framing of framing.go) begins
// with one kind byte:
//
//	frame    := len(4,BE) kind payload
//	kind     := 0x00 gob | 0x01 batch | 0x02 flush | 0x03 report
//	          | 0x04 ack | 0x05 resume
//	          | 0x06 start | 0x07 close | 0x08 harvest | 0x09 harvested
//
// A batch frame coalesces one or more FeedBatch-sized chunks; the
// sub-batch boundaries are preserved so the receiver replays the exact
// FeedBatch call sequence the sender issued (chunk boundaries drive
// round-robin shuffle routing and arrival accounting, which the
// equivalence pins depend on):
//
//	batch    := nsub(4,BE) sub*
//	sub      := ntuples(4,BE) keys costs states seqs ticks streams values
//
// Columns are varint-packed: keys and seqs as uvarints, costs, state
// sizes and emit ticks as zigzag varints (steady-state values are tiny
// — cost 1, state 1 — so most columns are one byte per tuple). Streams
// are length-prefixed strings (almost always empty: one zero byte);
// values carry a one-byte type tag covering the registered basic types,
// with a per-value self-contained gob blob as the escape hatch for
// exotic application types.
//
// Decode never trusts a length: every count is bounds-checked against
// the remaining payload before any allocation, and every error path
// returns ErrBinaryFrame-wrapped errors — hostile input can make the
// codec fail, never panic or over-allocate.

// Frame kind bytes. kindGob must be zero: a binary-mode peer that
// accidentally feeds a gob stream to the dispatcher fails cleanly on
// the length framing, not silently.
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
	kindMax
)

// batchHeaderLen is the fixed-width batch frame header: the kind byte
// plus a 4-byte big-endian sub-batch count, patched in place when the
// coalescing sender seals the frame.
const batchHeaderLen = 5

// subHeaderLen is the fixed-width per-sub-batch header (tuple count).
const subHeaderLen = 4

// ErrBinaryFrame tags every decode failure of the binary codec: a
// truncated column, a hostile count, an unknown kind or value tag.
var ErrBinaryFrame = errors.New("protocol: malformed binary frame")

// Value type tags for tuple.Value. The tagged set covers every concrete
// type the in-tree workloads and operators put in tuples; anything else
// falls back to a per-value gob blob (tag valGob), which requires the
// type to be gob-registered exactly as the all-gob wire does.
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

// appendUvarint/appendSvarint are the column primitives. Signed values
// are zigzag-mapped so small negatives stay small on the wire.
func appendSvarint(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v)<<1^uint64(v>>63))
}

func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// cursor is the bounds-checked decode reader over one frame payload.
type cursor struct {
	p   []byte
	off int
}

func (c *cursor) rem() int { return len(c.p) - c.off }

func (c *cursor) fail(what string) error {
	return fmt.Errorf("%w: %s at offset %d of %d", ErrBinaryFrame, what, c.off, len(c.p))
}

func (c *cursor) byte() (byte, error) {
	if c.off >= len(c.p) {
		return 0, c.fail("truncated byte")
	}
	b := c.p[c.off]
	c.off++
	return b, nil
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || c.rem() < n {
		return nil, c.fail(fmt.Sprintf("truncated %d-byte field", n))
	}
	b := c.p[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) u32() (int, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint32(b)), nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.p[c.off:])
	if n <= 0 {
		return 0, c.fail("bad uvarint")
	}
	c.off += n
	return v, nil
}

func (c *cursor) svarint() (int64, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return unzig(u), nil
}

// count reads a uvarint element count and sanity-checks it against the
// remaining bytes: every element costs at least one byte on the wire,
// so a count exceeding the remainder is hostile and must fail before
// any allocation sized from it.
func (c *cursor) count() (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.rem()) {
		return 0, c.fail(fmt.Sprintf("count %d exceeds %d remaining bytes", v, c.rem()))
	}
	return int(v), nil
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

func (c *cursor) value() (any, error) {
	tag, err := c.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case valNil:
		return nil, nil
	case valInt64:
		return c.svarint()
	case valInt:
		v, err := c.svarint()
		return int(v), err
	case valUint64:
		return c.uvarint()
	case valFloat64:
		b, err := c.take(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
	case valString:
		n, err := c.count()
		if err != nil {
			return nil, err
		}
		b, err := c.take(n)
		if err != nil {
			return nil, err
		}
		return string(b), nil
	case valBytes:
		n, err := c.count()
		if err != nil {
			return nil, err
		}
		b, err := c.take(n)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), nil
	case valKey:
		v, err := c.uvarint()
		return tuple.Key(v), err
	case valKeys:
		n, err := c.count()
		if err != nil {
			return nil, err
		}
		out := make([]tuple.Key, n)
		for i := range out {
			v, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			out[i] = tuple.Key(v)
		}
		return out, nil
	case valGob:
		n, err := c.count()
		if err != nil {
			return nil, err
		}
		b, err := c.take(n)
		if err != nil {
			return nil, err
		}
		var box valueBox
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&box); err != nil {
			return nil, fmt.Errorf("%w: gob value: %v", ErrBinaryFrame, err)
		}
		return box.V, nil
	default:
		return nil, c.fail(fmt.Sprintf("unknown value tag %#x", tag))
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
// fixed-width tuple count, then the varint-packed columns. It touches
// no shared codec state, so senders encode concurrently outside any
// connection lock and serialize only the socket write.
func AppendBatchChunk(dst []byte, ts []tuple.Tuple) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ts)))
	for i := range ts {
		dst = binary.AppendUvarint(dst, uint64(ts[i].Key))
	}
	for i := range ts {
		dst = appendSvarint(dst, ts[i].Cost)
	}
	for i := range ts {
		dst = appendSvarint(dst, ts[i].StateSize)
	}
	for i := range ts {
		dst = binary.AppendUvarint(dst, ts[i].Seq)
	}
	for i := range ts {
		dst = appendSvarint(dst, ts[i].EmitTick)
	}
	for i := range ts {
		dst = binary.AppendUvarint(dst, uint64(len(ts[i].Stream)))
		dst = append(dst, ts[i].Stream...)
	}
	var err error
	for i := range ts {
		if dst, err = appendValue(dst, ts[i].Value); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// decodeBatchChunk decodes one sub-batch into dst (appending), returning
// the grown slice. Tuples land in codec-retained storage; every field
// of every appended tuple is written, so no zeroing is needed.
func (c *Codec) decodeBatchChunk(cur *cursor, dst []tuple.Tuple) ([]tuple.Tuple, error) {
	nt, err := cur.u32()
	if err != nil {
		return dst, err
	}
	// Each tuple costs at least 6 bytes (one per varint column plus the
	// value tag); reject hostile counts before sizing the buffer.
	if nt < 0 || nt > cur.rem()/6+1 {
		return dst, cur.fail(fmt.Sprintf("tuple count %d exceeds frame", nt))
	}
	base := len(dst)
	if cap(dst) < base+nt {
		grown := make([]tuple.Tuple, base, base+nt+base/2)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+nt]
	sub := dst[base:]
	for i := range sub {
		v, err := cur.uvarint()
		if err != nil {
			return dst, err
		}
		sub[i].Key = tuple.Key(v)
	}
	for i := range sub {
		if sub[i].Cost, err = cur.svarint(); err != nil {
			return dst, err
		}
	}
	for i := range sub {
		if sub[i].StateSize, err = cur.svarint(); err != nil {
			return dst, err
		}
	}
	for i := range sub {
		if sub[i].Seq, err = cur.uvarint(); err != nil {
			return dst, err
		}
	}
	for i := range sub {
		if sub[i].EmitTick, err = cur.svarint(); err != nil {
			return dst, err
		}
	}
	for i := range sub {
		n, err := cur.count()
		if err != nil {
			return dst, err
		}
		b, err := cur.take(n)
		if err != nil {
			return dst, err
		}
		sub[i].Stream = c.internStream(b)
	}
	for i := range sub {
		if sub[i].Value, err = cur.value(); err != nil {
			return dst, err
		}
	}
	return dst, nil
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

// decodeBatchFrame decodes a batch frame body into the codec's retained
// tuple buffer. With one sub-batch the message carries no Bounds (the
// uncoalesced form round-trips exactly); with several, Bounds lists the
// sub-batch end offsets so the receiver replays the sender's FeedBatch
// call sequence.
func (c *Codec) decodeBatchFrame(body []byte) (*Message, error) {
	cur := &cursor{p: body}
	nsub, err := cur.u32()
	if err != nil {
		return nil, err
	}
	if nsub < 0 || nsub > cur.rem()/subHeaderLen+1 {
		return nil, cur.fail(fmt.Sprintf("sub-batch count %d exceeds frame", nsub))
	}
	tup := c.tup[:0]
	bounds := c.bounds[:0]
	for i := 0; i < nsub; i++ {
		if tup, err = c.decodeBatchChunk(cur, tup); err != nil {
			c.tup = tup
			return nil, err
		}
		bounds = append(bounds, len(tup))
	}
	if cur.rem() != 0 {
		c.tup = tup
		return nil, cur.fail(fmt.Sprintf("%d trailing bytes", cur.rem()))
	}
	c.tup, c.bounds = tup, bounds
	c.hotBatch.Tuples = tup
	c.hotBatch.Bounds = nil
	if nsub != 1 {
		c.hotBatch.Bounds = bounds
	}
	c.hotMsg = Message{Batch: &c.hotBatch}
	return &c.hotMsg, nil
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

// reportKeys decodes a report's run onto buf, which it returns grown:
// the count is checked against the bytes left before anything is sized
// by it. Destinations and order are the receiver's to check
// (LoadReport.CheckMerged) — the frame does not know the stage yet.
func (c *cursor) reportKeys(buf []stats.KeyStat) ([]stats.KeyStat, error) {
	n, err := c.count()
	if err != nil {
		return buf, err
	}
	// Each entry costs at least 6 bytes (six varints).
	if n > c.rem()/6 {
		return buf, c.fail(fmt.Sprintf("report entry count %d exceeds frame", n))
	}
	buf = slices.Grow(buf, n)[:n]
	for i := range buf {
		ks := &buf[i]
		k, err := c.uvarint()
		if err != nil {
			return buf, err
		}
		ks.Key = tuple.Key(k)
		if ks.Cost, err = c.svarint(); err != nil {
			return buf, err
		}
		if ks.Freq, err = c.svarint(); err != nil {
			return buf, err
		}
		if ks.Mem, err = c.svarint(); err != nil {
			return buf, err
		}
		h, err := c.svarint()
		if err != nil {
			return buf, err
		}
		d, err := c.svarint()
		if err != nil {
			return buf, err
		}
		ks.Hash, ks.Dest = int(h), int(d)
	}
	return buf, nil
}

func appendKeys(dst []byte, ks []tuple.Key) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	return dst
}

func (c *cursor) keys() ([]tuple.Key, error) {
	n, err := c.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]tuple.Key, n)
	for i := range out {
		v, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		out[i] = tuple.Key(v)
	}
	return out, nil
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
func (c *Codec) decodeReport(body []byte) (*Message, error) {
	cur := &cursor{p: body}
	r := &LoadReport{}
	var err error
	var v int64
	if r.Interval, err = cur.svarint(); err != nil {
		return nil, err
	}
	flags, err := cur.byte()
	if err != nil {
		return nil, err
	}
	r.Routable = flags&repRoutable != 0
	r.Resizable = flags&repResizable != 0
	buf := &c.merged[c.mergedN&1]
	c.mergedN++
	if *buf, err = cur.reportKeys((*buf)[:0]); err != nil {
		return nil, err
	}
	r.Keys = *buf
	if r.Split, err = cur.keys(); err != nil {
		return nil, err
	}
	if v, err = cur.svarint(); err != nil {
		return nil, err
	}
	r.Tasks = int(v)
	if r.Capacity, err = cur.svarint(); err != nil {
		return nil, err
	}
	if r.Emitted, err = cur.svarint(); err != nil {
		return nil, err
	}
	if r.Budget, err = cur.svarint(); err != nil {
		return nil, err
	}
	if cur.rem() != 0 {
		return nil, cur.fail(fmt.Sprintf("%d trailing bytes", cur.rem()))
	}
	return &Message{Report: r}, nil
}

// appendInt64s/appendInts encode a count-prefixed zigzag-varint list.
func appendInt64s(dst []byte, vs []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendSvarint(dst, v)
	}
	return dst
}

func appendInts(dst []byte, vs []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendSvarint(dst, int64(v))
	}
	return dst
}

func (c *cursor) int64s() ([]int64, error) {
	n, err := c.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	vs := make([]int64, n)
	for i := range vs {
		if vs[i], err = c.svarint(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

func (c *cursor) ints() ([]int, error) {
	n, err := c.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	vs := make([]int, n)
	for i := range vs {
		v, err := c.svarint()
		if err != nil {
			return nil, err
		}
		vs[i] = int(v)
	}
	return vs, nil
}

// HarvestDone flag bits (one byte on the wire).
const (
	hdRebalanced byte = 1 << iota
)

// appendHarvestDone encodes the per-interval stage-close summary: the
// scalar fields as zigzag varints (PlanMs as raw float bits — it is a
// measured duration, not a small integer), the per-instance arrays as
// count-prefixed varint lists.
func appendHarvestDone(dst []byte, h *HarvestDone) []byte {
	dst = append(dst, kindHarvestDone)
	dst = appendSvarint(dst, int64(h.Stage))
	dst = appendSvarint(dst, h.Interval)
	var flags byte
	if h.Rebalanced {
		flags |= hdRebalanced
	}
	dst = append(dst, flags)
	dst = appendInt64s(dst, h.ArrivedCost)
	dst = appendInt64s(dst, h.ArrivedTuples)
	dst = appendInt64s(dst, h.MigPenalty)
	dst = appendInts(dst, h.Resizes)
	dst = appendSvarint(dst, int64(h.Instances))
	dst = appendSvarint(dst, h.LiveState)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.PlanMs))
	dst = appendSvarint(dst, int64(h.TableSize))
	dst = appendSvarint(dst, h.Moved)
	dst = appendSvarint(dst, int64(h.ScaledOut))
	dst = appendSvarint(dst, int64(h.ScaledIn))
	dst = appendSvarint(dst, h.Processed)
	return dst
}

// decodeHarvestDone allocates fresh: the coordinator folds the summary
// into its metrics row after further Recvs on the session may have run.
func decodeHarvestDone(body []byte) (*Message, error) {
	cur := &cursor{p: body}
	h := &HarvestDone{}
	var err error
	var v int64
	if v, err = cur.svarint(); err != nil {
		return nil, err
	}
	h.Stage = int(v)
	if h.Interval, err = cur.svarint(); err != nil {
		return nil, err
	}
	flags, err := cur.byte()
	if err != nil {
		return nil, err
	}
	h.Rebalanced = flags&hdRebalanced != 0
	if h.ArrivedCost, err = cur.int64s(); err != nil {
		return nil, err
	}
	if h.ArrivedTuples, err = cur.int64s(); err != nil {
		return nil, err
	}
	if h.MigPenalty, err = cur.int64s(); err != nil {
		return nil, err
	}
	if h.Resizes, err = cur.ints(); err != nil {
		return nil, err
	}
	if v, err = cur.svarint(); err != nil {
		return nil, err
	}
	h.Instances = int(v)
	if h.LiveState, err = cur.svarint(); err != nil {
		return nil, err
	}
	fb, err := cur.take(8)
	if err != nil {
		return nil, err
	}
	h.PlanMs = math.Float64frombits(binary.BigEndian.Uint64(fb))
	if v, err = cur.svarint(); err != nil {
		return nil, err
	}
	h.TableSize = int(v)
	if h.Moved, err = cur.svarint(); err != nil {
		return nil, err
	}
	if v, err = cur.svarint(); err != nil {
		return nil, err
	}
	h.ScaledOut = int(v)
	if v, err = cur.svarint(); err != nil {
		return nil, err
	}
	h.ScaledIn = int(v)
	if h.Processed, err = cur.svarint(); err != nil {
		return nil, err
	}
	if cur.rem() != 0 {
		return nil, cur.fail(fmt.Sprintf("%d trailing bytes", cur.rem()))
	}
	return &Message{Harvested: h}, nil
}

// sendBinary dispatches one message under the binary wire: hot kinds
// take the hand-rolled encoding through the retained scratch buffer
// (amortized zero allocations per message); everything else becomes a
// self-contained gob stream behind kindGob.
func (c *Codec) sendBinary(m *Message) error {
	switch {
	case m.Batch != nil:
		b := AppendBatchHeader(c.bin[:0])
		nsub := 0
		var err error
		if n := len(m.Batch.Bounds); n > 0 {
			start := 0
			for _, end := range m.Batch.Bounds {
				if end < start || end > len(m.Batch.Tuples) {
					return fmt.Errorf("protocol: batch bounds %v out of range", m.Batch.Bounds)
				}
				if b, err = AppendBatchChunk(b, m.Batch.Tuples[start:end]); err != nil {
					return err
				}
				start = end
				nsub++
			}
		} else {
			if b, err = AppendBatchChunk(b, m.Batch.Tuples); err != nil {
				return err
			}
			nsub = 1
		}
		PatchBatchHeader(b, nsub)
		c.bin = b
		return c.writeFrame(b)
	case m.FlushReq != nil:
		b := append(c.bin[:0], kindFlush)
		b = binary.BigEndian.AppendUint64(b, m.FlushReq.Seq)
		c.bin = b
		return c.writeFrame(b)
	case m.Report != nil:
		c.bin = appendReport(c.bin[:0], m.Report)
		return c.writeFrame(c.bin)
	case m.Ack != nil:
		b := append(c.bin[:0], kindAck)
		b = appendSvarint(b, int64(m.Ack.TaskID))
		b = appendSvarint(b, m.Ack.Interval)
		c.bin = b
		return c.writeFrame(b)
	case m.Resume != nil:
		b := append(c.bin[:0], kindResume)
		b = appendSvarint(b, m.Resume.Interval)
		c.bin = b
		return c.writeFrame(b)
	case m.Start != nil:
		b := append(c.bin[:0], kindStart)
		b = appendSvarint(b, m.Start.Interval)
		b = appendSvarint(b, m.Start.Emit)
		c.bin = b
		return c.writeFrame(b)
	case m.Close != nil:
		b := append(c.bin[:0], kindClose)
		b = appendSvarint(b, int64(m.Close.Stage))
		c.bin = b
		return c.writeFrame(b)
	case m.Harvest != nil:
		b := append(c.bin[:0], kindHarvestReq)
		b = appendSvarint(b, int64(m.Harvest.Stage))
		b = appendSvarint(b, m.Harvest.Interval)
		b = appendSvarint(b, m.Harvest.Emit)
		c.bin = b
		return c.writeFrame(b)
	case m.Harvested != nil:
		c.bin = appendHarvestDone(c.bin[:0], m.Harvested)
		return c.writeFrame(c.bin)
	default:
		// Rare frame: self-contained gob stream (fresh encoder, so the
		// frame carries its own type descriptors and the decoder needs
		// no cross-frame state).
		c.buf.Reset()
		c.buf.WriteByte(kindGob)
		if err := gob.NewEncoder(&c.buf).Encode(m); err != nil {
			return err
		}
		return c.writeFrame(c.buf.Bytes())
	}
}

// recvBinary reads one frame and dispatches on its kind byte. Batch and
// Flush messages (the data-plane hot path) reuse codec-owned storage —
// tuples decode into a pooled retained slice, mirroring the engine's
// recycled feed buffers — and are invalidated by the next Recv on this
// codec; control-plane messages are freshly allocated, except a
// report's run (see decodeReport).
func (c *Codec) recvBinary() (*Message, error) {
	p, err := c.fr.frame()
	if err != nil {
		return nil, err
	}
	c.rcvd.Add(int64(len(p)))
	if len(p) == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrBinaryFrame)
	}
	kind, body := p[0], p[1:]
	switch kind {
	case kindGob:
		var m Message
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&m); err != nil {
			return nil, fmt.Errorf("%w: gob frame: %v", ErrBinaryFrame, err)
		}
		return &m, nil
	case kindBatch:
		return c.decodeBatchFrame(body)
	case kindFlush:
		if len(body) != 8 {
			return nil, fmt.Errorf("%w: flush frame has %d payload bytes, want 8", ErrBinaryFrame, len(body))
		}
		c.hotFlush.Seq = binary.BigEndian.Uint64(body)
		c.hotMsg = Message{FlushReq: &c.hotFlush}
		return &c.hotMsg, nil
	case kindReport:
		return c.decodeReport(body)
	case kindAck:
		cur := &cursor{p: body}
		id, err := cur.svarint()
		if err != nil {
			return nil, err
		}
		iv, err := cur.svarint()
		if err != nil || cur.rem() != 0 {
			return nil, cur.fail("ack frame")
		}
		return &Message{Ack: &Ack{TaskID: int(id), Interval: iv}}, nil
	case kindResume:
		cur := &cursor{p: body}
		iv, err := cur.svarint()
		if err != nil || cur.rem() != 0 {
			return nil, cur.fail("resume frame")
		}
		return &Message{Resume: &Resume{Interval: iv}}, nil
	case kindStart:
		cur := &cursor{p: body}
		iv, err := cur.svarint()
		if err != nil {
			return nil, err
		}
		emit, err := cur.svarint()
		if err != nil || cur.rem() != 0 {
			return nil, cur.fail("start frame")
		}
		return &Message{Start: &StartInterval{Interval: iv, Emit: emit}}, nil
	case kindClose:
		cur := &cursor{p: body}
		st, err := cur.svarint()
		if err != nil || cur.rem() != 0 {
			return nil, cur.fail("close frame")
		}
		return &Message{Close: &CloseStage{Stage: int(st)}}, nil
	case kindHarvestReq:
		cur := &cursor{p: body}
		st, err := cur.svarint()
		if err != nil {
			return nil, err
		}
		iv, err := cur.svarint()
		if err != nil {
			return nil, err
		}
		emit, err := cur.svarint()
		if err != nil || cur.rem() != 0 {
			return nil, cur.fail("harvest frame")
		}
		return &Message{Harvest: &HarvestReq{Stage: int(st), Interval: iv, Emit: emit}}, nil
	case kindHarvestDone:
		return decodeHarvestDone(body)
	default:
		return nil, fmt.Errorf("%w: unknown frame kind %#x", ErrBinaryFrame, kind)
	}
}
