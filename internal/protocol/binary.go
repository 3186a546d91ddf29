package protocol

import (
	"encoding/binary"
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
// drive (StartInterval, CloseStage, HarvestReq, HarvestDone, Ack) and
// the whole control round (LoadReport, Commands) — and for what is sent
// once per session (the Hello/Welcome handshake, placement, shutdown and
// its stats). It is the only encoding the cluster speaks: any peer that
// connects can send the handshake, so it is decoded like every other
// frame.
//
// Every frame (inside the 4-byte length framing of framing.go) begins
// with one kind byte:
//
//	frame    := len(4,BE) kind payload
//	kind     := 0x01 batch | 0x02 flush | 0x03 report | 0x04 ack
//	          | 0x06 start | 0x07 close | 0x08 harvest | 0x09 harvested
//	          | 0x0e hello | 0x0f welcome | 0x10 assign | 0x11 shutdown
//	          | 0x12 stats | 0x13 commands
//
// Kinds 0x05 (resume) and 0x0d (state transfer) belong to protocols up
// to 11 and are unknown now. Plan, resize and split (0x0a–0x0c) are the
// kinds of a commands list's entries and are unknown as frames.
//
// A batch frame coalesces one or more FeedBatch-sized chunks; the
// sub-batch boundaries are preserved so the receiver replays the exact
// FeedBatch call sequence the sender issued (chunk boundaries drive
// round-robin shuffle routing and arrival accounting, which the
// equivalence pins depend on):
//
//	batch    := nsub(4,BE) sub*
//	sub      := ntuples(4,BE) flags(1) [cost] [state] row{ntuples}
//	row      := key seq [cost] [state] [value]
//
// A row is one tuple, so decode is one pass that touches every tuple
// once, and a row carries only what varies inside its chunk. The flags
// byte says what the encoder found constant: a field every tuple of the
// chunk shares (cost, state size) is written once in the sub-batch
// header instead of in every row; a chunk of nil values leaves the value
// out of its rows; a chunk whose seqs never decrease sends each seq as
// the delta from the row before. Flag bit 0x04 hoisted an emit tick up
// to protocol 8 and bit 0x08 a stream label up to protocol 9; both are
// now unknown, and a sub-batch setting either is malformed. The
// engine's own chunks — cost 1, state 1, nil values, rising seqs — are
// a key and a one-byte delta per tuple, written in one pass
// (AppendBatchChunk), and no chunk is more than the flags byte longer
// than a row that carried every field. Fields are varint-packed: keys and seqs
// as uvarints, costs and state sizes as zigzag varints; the value is
// tuple.AppendValue's one-byte type tag and body (nil, int64, int,
// uint64, float64, string, []byte, tuple.Key, []tuple.Key). A value of
// any other type is an encode error naming it.
//
//	commands := interval n command{n}
//	command  := 0x0a plan | 0x0b resize | 0x0c split
//	plan     := interval algo gentime table moved
//	table, moved := n (key dest){n}
//	resize   := interval delta
//	split    := interval n (key fan){n}
//	hello    := proto role worker stage dataaddr
//	welcome  := proto id
//	assign   := stage instances window capacity budget downstage flags
//	            name op algorithm downstream
//	shutdown := reason
//	stats    := worker n (name sent rcvd sentmsgs rcvdmsgs){n}
//
// Keys and counts are uvarints, other integers zigzag varints (assign's
// flags: 1 Target, 2 Control), strings length-prefixed.
//
// Decode never trusts a length: every count is bounds-checked against
// the remaining payload before any allocation, and every error path
// returns ErrBinaryFrame-wrapped errors — hostile input can make the
// codec fail, never panic or over-allocate.

// Frame kind bytes.
const (
	kindBatch byte = iota + 1
	kindFlush
	kindReport
	kindAck
	_ // resume, up to protocol 11
	kindStart
	kindClose
	kindHarvestReq
	kindHarvestDone
	kindPlan
	kindResize
	kindSplit
	_ // state transfer, up to protocol 11
	kindHello
	kindWelcome
	kindAssign
	kindShutdown
	kindStats
	kindCommands
)

// minCommandLen is the least a commands list's entry takes on the wire:
// its kind byte and one varint (a resize, or a split with no entries).
const minCommandLen = 2

// batchHeaderLen is the fixed-width batch frame header: the kind byte
// plus a 4-byte big-endian sub-batch count, patched in place when the
// coalescing sender seals the frame.
const batchHeaderLen = 5

// subHeaderLen is the fixed-width per-sub-batch header (tuple count and
// flags).
const subHeaderLen = 5

// Sub-batch flag bits. subCost and subState hoist a field every tuple
// of the chunk shares into the sub-batch header; subNil drops the value
// from every row; subSeqDelta makes a row's seq the delta from the
// previous row's (the first row's from zero). Bits 0x04 (the emit tick's
// up to protocol 8) and 0x08 (the stream label's up to protocol 9) are
// unknown.
const (
	subCost byte = 1 << iota
	subState
	_
	_
	subNil
	subSeqDelta

	subKnown = subCost | subState | subNil | subSeqDelta
)

// ErrBinaryFrame tags every decode failure of the binary codec: a
// truncated row, a hostile count, an unknown kind or value tag.
var ErrBinaryFrame = errors.New("protocol: malformed binary frame")

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

// cursor is the decode reader over one frame payload: tuple.Reader's
// bounds-checked reads (the value tags among them), plus the frame's own.
type cursor struct{ tuple.Reader }

// done ends a frame's decode: its first failure, or bytes left over, as
// an ErrBinaryFrame.
func (c *cursor) done() error {
	if c.Err == nil && c.Rem() != 0 {
		c.Fail("%d trailing bytes", c.Rem())
	}
	if c.Err != nil {
		return fmt.Errorf("%w: %v", ErrBinaryFrame, c.Err)
	}
	return nil
}

func (c *cursor) u32() int {
	if b := c.Take(4); b != nil {
		return int(binary.BigEndian.Uint32(b))
	}
	return 0
}

// appendString and str carry a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	return append(appendUvarint(dst, uint64(len(s))), s...)
}

func (c *cursor) str() string { return string(c.Take(c.Count(1))) }

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
//
// A chunk whose first value is nil is written in one pass as the
// engine's own chunks are, every flag set: the first tuple's cost and
// state size hoisted, each row checked against them (and for a nil
// value and a seq no lower than the last) as it is written. The first
// tuple that breaks a hoist cuts the sub-batch back to its count, and
// the chunk is scanned for its flags (chunkFlags) and written again, so
// the bytes never depend on which way a chunk went.
func AppendBatchChunk(dst []byte, ts []tuple.Tuple) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ts)))
	if len(ts) == 0 {
		return append(dst, 0), nil
	}
	h := &ts[0]
	if h.Value == nil {
		start := len(dst)
		dst = appendSvarint(appendSvarint(append(dst, subKnown), h.Cost), h.StateSize)
		var prev uint64
		i := 0
		for ; i < len(ts); i++ {
			t := &ts[i]
			if t.Cost != h.Cost || t.StateSize != h.StateSize || t.Value != nil || t.Seq < prev {
				break
			}
			dst = appendUvarint(appendUvarint(dst, uint64(t.Key)), t.Seq-prev)
			prev = t.Seq
		}
		if i == len(ts) {
			return dst, nil
		}
		dst = dst[:start]
	}
	flags := chunkFlags(ts)
	dst = append(dst, flags)
	if flags&subCost != 0 {
		dst = appendSvarint(dst, h.Cost)
	}
	if flags&subState != 0 {
		dst = appendSvarint(dst, h.StateSize)
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
		if flags&subNil != 0 {
			continue
		}
		if dst, err = tuple.AppendValue(dst, t.Value); err != nil {
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
// decoded tuple is 24 times that, so the count alone must not size the
// buffer: rows past the reservation grow it as they decode.
const rowReserve = 4096

// decodeBatchChunk decodes one sub-batch into dst (appending), returning
// the grown slice; the caller checks cur.Err. Tuples land in
// codec-retained storage; every field of every appended tuple is
// written, so no zeroing is needed.
func decodeBatchChunk(cur *cursor, dst []tuple.Tuple) []tuple.Tuple {
	nt := cur.u32()
	flags := cur.Byte()
	if flags&^subKnown != 0 {
		cur.Fail("unknown sub-batch flags %#x", flags)
		return dst
	}
	var h tuple.Tuple // the hoisted fields
	if flags&subCost != 0 {
		h.Cost = cur.Varint()
	}
	if flags&subState != 0 {
		h.StateSize = cur.Varint()
	}
	// Reject hostile counts before decoding a row.
	if nt > cur.Rem()/minRowLen {
		cur.Fail("tuple count %d exceeds frame", nt)
		return dst
	}
	var prev uint64
	for done := 0; done < nt && cur.Err == nil; {
		n := min(nt-done, rowReserve)
		dst = slices.Grow(dst, n)
		sub := dst[len(dst) : len(dst)+n]
		dst = dst[:len(dst)+n]
		prev = rows(cur, sub, flags, &h, prev, done, nt)
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
func rows(cur *cursor, sub []tuple.Tuple, flags byte, h *tuple.Tuple, prev uint64, rows0, nt int) uint64 {
	p := cur.P
	for i := range sub {
		var key, seq uint64
		off := cur.Off
		if off < len(p) && p[off] < 0x80 {
			key, off = uint64(p[off]), off+1
		} else {
			key, off = tuple.UvarintAt(p, off)
		}
		if off < len(p) && p[off] < 0x80 {
			seq, off = uint64(p[off]), off+1
		} else {
			seq, off = tuple.UvarintAt(p, off)
		}
		if off > len(p) {
			cur.Fail("truncated row %d of %d", rows0+i, nt)
			return prev
		}
		cur.Off = off
		if flags&subSeqDelta != 0 {
			seq += prev
			prev = seq
		}
		t := &sub[i]
		t.Key, t.Seq, t.Cost, t.StateSize = tuple.Key(key), seq, h.Cost, h.StateSize
		if flags&subCost == 0 {
			t.Cost = cur.Varint()
		}
		if flags&subState == 0 {
			t.StateSize = cur.Varint()
		}
		t.Value = nil
		if flags&subNil == 0 {
			t.Value = cur.Value()
		}
		if cur.Err != nil {
			break
		}
	}
	return prev
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
	if nsub < 0 || nsub > cur.Rem()/subHeaderLen+1 {
		cur.Fail("sub-batch count %d exceeds frame", nsub)
		return
	}
	tup := c.tup[:0]
	bounds := c.bounds[:0]
	for i := 0; i < nsub; i++ {
		if tup = decodeBatchChunk(cur, tup); cur.Err != nil {
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
	n := c.Count(6) // six varints per entry
	buf = slices.Grow(buf, n)[:n]
	for i := range buf {
		ks := &buf[i]
		ks.Key = tuple.Key(c.Uvarint())
		ks.Cost = c.Varint()
		ks.Freq = c.Varint()
		ks.Mem = c.Varint()
		ks.Hash = int(c.Varint())
		ks.Dest = int(c.Varint())
	}
	return buf
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
	dst = appendPairs(dst, r.Split, splitPair)
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
	r := &LoadReport{Interval: cur.Varint()}
	flags := cur.Byte()
	r.Routable = flags&repRoutable != 0
	r.Resizable = flags&repResizable != 0
	buf := &c.merged[c.mergedN&1]
	c.mergedN++
	*buf = cur.reportKeys((*buf)[:0])
	r.Keys = *buf
	r.Split = pairs(cur, mkSplit)
	r.Tasks = int(cur.Varint())
	r.Capacity = cur.Varint()
	r.Emitted = cur.Varint()
	r.Budget = cur.Varint()
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
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = c.Varint()
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
	h := &HarvestDone{Stage: int(cur.Varint()), Interval: cur.Varint()}
	r := &h.Row
	r.Index = cur.Varint()
	r.Rebalanced = cur.Byte()&hdRebalanced != 0
	for _, f := range [...]*float64{&r.Throughput, &r.LatencyMs, &r.Skewness, &r.MaxTheta, &r.MigrationPct, &r.PlanMs} {
		*f = math.Float64frombits(cur.U64())
	}
	r.TableSize = int(cur.Varint())
	r.Emitted = cur.Varint()
	r.ScaleOuts = int(cur.Varint())
	r.ScaleIns = int(cur.Varint())
	h.Backlog = cur.int64s()
	h.Processed = cur.Varint()
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
	n := c.Count(2) // two varints per entry
	if n == 0 {
		return nil
	}
	es := make([]T, n)
	for i := range es {
		es[i] = mk(tuple.Key(c.Uvarint()), int(c.Varint()))
	}
	return es
}

func routePair(e RouteEntry) (tuple.Key, int) { return e.Key, e.Dest }
func splitPair(e SplitEntry) (tuple.Key, int) { return e.Key, e.Fan }
func mkRoute(k tuple.Key, d int) RouteEntry   { return RouteEntry{Key: k, Dest: d} }
func mkSplit(k tuple.Key, f int) SplitEntry   { return SplitEntry{Key: k, Fan: f} }

// appendCommands encodes a round's reply: the interval, then each
// command behind its own kind byte. The entries carry no interval of
// their own; the list's is theirs.
func appendCommands(dst []byte, cs *Commands) ([]byte, error) {
	dst = appendUvarint(appendSvarints(dst, kindCommands, cs.Interval), uint64(len(cs.List)))
	for i, c := range cs.List {
		switch {
		case c.Plan != nil:
			dst = appendPlan(dst, c.Plan)
		case c.Resize != nil:
			dst = appendSvarint(append(dst, kindResize), int64(c.Resize.Delta))
		case c.Split != nil:
			dst = appendPairs(append(dst, kindSplit), c.Split.Set, splitPair)
		default:
			return nil, fmt.Errorf("protocol: refusing to send empty command %d", i)
		}
	}
	return dst, nil
}

// decodeCommands checks the list's count against the frame before it
// allocates, and refuses an entry of any kind but plan, resize and
// split.
func decodeCommands(cur *cursor) *Commands {
	cs := &Commands{Interval: cur.Varint()}
	n := cur.Count(minCommandLen)
	if n == 0 {
		return cs
	}
	cs.List = make([]Command, n)
	for i := range cs.List {
		c := &cs.List[i]
		switch kind := cur.Byte(); kind {
		case kindPlan:
			c.Plan = decodePlan(cur)
		case kindResize:
			c.Resize = &Resize{Delta: int(cur.Varint())}
		case kindSplit:
			c.Split = &SplitAnnounce{Set: pairs(cur, mkSplit)}
		default:
			cur.Fail("command %d of %d has kind %#x", i, n, kind)
		}
		if cur.Err != nil {
			return cs
		}
	}
	return cs
}

func appendPlan(dst []byte, a *PlanAnnounce) []byte {
	dst = appendString(append(dst, kindPlan), a.Algorithm)
	dst = appendSvarint(dst, int64(a.GenTime))
	dst = appendPairs(dst, a.Table, routePair)
	return appendPairs(dst, a.Moved, routePair)
}

func decodePlan(cur *cursor) *PlanAnnounce {
	a := &PlanAnnounce{Algorithm: cur.str()}
	a.GenTime = time.Duration(cur.Varint())
	a.Table = pairs(cur, mkRoute)
	a.Moved = pairs(cur, mkRoute)
	return a
}

// appendMessage appends one message's frame to b, into the codec's
// retained scratch, so amortized zero allocations per message.
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
	case m.Commands != nil:
		return appendCommands(b, m.Commands)
	case m.Ack != nil:
		b = appendSvarints(b, kindAck, int64(m.Ack.TaskID), m.Ack.Interval)
	case m.Start != nil:
		b = appendSvarints(b, kindStart, m.Start.Interval, m.Start.Emit)
	case m.Close != nil:
		b = appendSvarints(b, kindClose, int64(m.Close.Stage))
	case m.Harvest != nil:
		b = appendSvarints(b, kindHarvestReq, int64(m.Harvest.Stage), m.Harvest.Interval, m.Harvest.Emit)
	case m.Harvested != nil:
		b = appendHarvestDone(b, m.Harvested)
	case m.Hello != nil:
		h := m.Hello
		b = appendString(appendString(appendSvarints(b, kindHello, int64(h.Proto)), h.Role), h.Worker)
		b = appendString(appendSvarint(b, int64(h.Stage)), h.DataAddr)
	case m.Welcome != nil:
		b = appendSvarints(b, kindWelcome, int64(m.Welcome.Proto), int64(m.Welcome.ID))
	case m.Assign != nil:
		b = appendAssign(b, m.Assign)
	case m.Bye != nil:
		b = appendString(append(b, kindShutdown), m.Bye.Reason)
	case m.ConnStats != nil:
		b = appendStats(b, m.ConnStats)
	default:
		return nil, fmt.Errorf("protocol: refusing to send empty message")
	}
	return b, nil
}

func appendAssign(dst []byte, a *StageAssign) []byte {
	var flags int64
	if a.Target {
		flags |= 1
	}
	if a.Control {
		flags |= 2
	}
	dst = appendSvarints(dst, kindAssign, int64(a.Stage), int64(a.Instances), int64(a.Window), a.Capacity, a.Budget, int64(a.DownStage), flags)
	for _, s := range [...]string{a.Name, a.Op, a.Algorithm, a.Downstream} {
		dst = appendString(dst, s)
	}
	return dst
}

// decodeAssign checks the frame; the worker checks the stage (NewStage).
func decodeAssign(cur *cursor) *StageAssign {
	a := &StageAssign{Stage: int(cur.Varint()), Instances: int(cur.Varint()), Window: int(cur.Varint()),
		Capacity: cur.Varint(), Budget: cur.Varint(), DownStage: int(cur.Varint())}
	flags := cur.Varint()
	a.Target, a.Control = flags&1 != 0, flags&2 != 0
	a.Name, a.Op, a.Algorithm, a.Downstream = cur.str(), cur.str(), cur.str(), cur.str()
	return a
}

// appendStats encodes a worker's table: a name, four counters a row.
func appendStats(dst []byte, s *Stats) []byte {
	dst = appendUvarint(appendString(append(dst, kindStats), s.Worker), uint64(len(s.Conns)))
	for _, cs := range s.Conns {
		dst = appendString(dst, cs.Name)
		for _, v := range [...]int64{cs.Sent, cs.Rcvd, cs.SentMsgs, cs.RcvdMsgs} {
			dst = appendSvarint(dst, v)
		}
	}
	return dst
}

func decodeStats(cur *cursor) *Stats {
	s := &Stats{Worker: cur.str()}
	if n := cur.Count(5); n > 0 { // a name length and four counters
		s.Conns = make([]ConnStat, n)
		for i := range s.Conns {
			s.Conns[i] = ConnStat{Name: cur.str(), Sent: cur.Varint(), Rcvd: cur.Varint(), SentMsgs: cur.Varint(), RcvdMsgs: cur.Varint()}
		}
	}
	return s
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
// returns the batch empty. Batch and Flush messages reuse
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
	cur := &cursor{tuple.Reader{P: p[1:]}}
	m := &c.hotMsg
	switch kind := p[0]; kind {
	case kindBatch:
		c.decodeBatchFrame(cur, feed)
		*m = Message{Batch: &c.hotBatch}
	case kindFlush:
		c.hotFlush.Seq = cur.U64()
		*m = Message{FlushReq: &c.hotFlush}
	case kindReport:
		m = &Message{Report: c.decodeReport(cur)}
	case kindCommands:
		m = &Message{Commands: decodeCommands(cur)}
	case kindAck:
		m = &Message{Ack: &Ack{TaskID: int(cur.Varint()), Interval: cur.Varint()}}
	case kindStart:
		m = &Message{Start: &StartInterval{Interval: cur.Varint(), Emit: cur.Varint()}}
	case kindClose:
		m = &Message{Close: &CloseStage{Stage: int(cur.Varint())}}
	case kindHarvestReq:
		m = &Message{Harvest: &HarvestReq{Stage: int(cur.Varint()), Interval: cur.Varint(), Emit: cur.Varint()}}
	case kindHarvestDone:
		m = &Message{Harvested: decodeHarvestDone(cur)}
	case kindHello:
		m = &Message{Hello: &Hello{Proto: int(cur.Varint()), Role: cur.str(), Worker: cur.str(), Stage: int(cur.Varint()), DataAddr: cur.str()}}
	case kindWelcome:
		m = &Message{Welcome: &Welcome{Proto: int(cur.Varint()), ID: int(cur.Varint())}}
	case kindAssign:
		m = &Message{Assign: decodeAssign(cur)}
	case kindShutdown:
		m = &Message{Bye: &Shutdown{Reason: cur.str()}}
	case kindStats:
		m = &Message{ConnStats: decodeStats(cur)}
	default:
		return nil, fmt.Errorf("%w: unknown frame kind %#x", ErrBinaryFrame, kind)
	}
	if err := cur.done(); err != nil {
		return nil, err
	}
	return m, nil
}
