package protocol

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/tuple"
)

// binaryPair returns a sender and receiver codec over one in-memory
// stream.
func binaryPair(buf *bytes.Buffer) (*Codec, *Codec) {
	return NewFramedCodec(buf), NewFramedCodec(readerOnly{buf})
}

// TestBinaryRoundTripAllKinds drives every message kind through a framed
// codec pair over a synchronous pipe — the interval's kinds and the
// session's alike, the sender on its own goroutine as on a socket — and
// requires exact reproduction.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	send, recv := NewFramedCodec(a), NewFramedCodec(b)
	var msgs []*Message
	for kind := 0; kind < 19; kind++ {
		for _, n := range []int{0, 1, 33} {
			msgs = append(msgs, buildMessage(uint64(kind*131+n), kind, n))
		}
	}
	go func() {
		for _, m := range msgs {
			if err := send.Send(m); err != nil {
				t.Errorf("send %s: %v", m.Kind(), err)
				a.Close() // fail the receiver instead of leaving it waiting
				return
			}
		}
	}()
	for i, orig := range msgs {
		got, err := recv.Recv()
		if err != nil {
			t.Fatalf("recv %d (%s): %v", i, orig.Kind(), err)
		}
		if got.Kind() != orig.Kind() {
			t.Fatalf("kind %s decoded as %s", orig.Kind(), got.Kind())
		}
		if !reflect.DeepEqual(normalize(orig), normalize(got)) {
			t.Fatalf("%s (message %d) altered:\n sent %#v\n got  %#v", orig.Kind(), i, orig, got)
		}
	}
}

// TestBinaryValueTags round-trips every tagged tuple.Value type,
// including negative and boundary numerics, and refuses to send a value
// outside the tags, naming its type.
func TestBinaryValueTags(t *testing.T) {
	values := []any{
		nil,
		int64(0), int64(-1), int64(1 << 62), int64(-1 << 62),
		int(42), int(-42),
		uint64(0), uint64(1<<64 - 1),
		float64(0), float64(-3.25), float64(1e308),
		"", "counts", strings.Repeat("x", 300),
		[]byte{}, []byte{0, 255, 7},
		tuple.Key(0), tuple.Key(1<<64 - 1),
		[]tuple.Key{}, []tuple.Key{1, 1 << 40},
	}
	var buf bytes.Buffer
	send, recv := binaryPair(&buf)
	ts := make([]tuple.Tuple, len(values))
	for i, v := range values {
		ts[i] = tuple.Tuple{Key: tuple.Key(i), Value: v}
	}
	if err := send.Send(&Message{Batch: &TupleBatch{Tuples: ts}}); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := recv.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	for i, v := range values {
		g := got.Batch.Tuples[i].Value
		// Empty slices may decode nil; normalize.
		if b, ok := v.([]byte); ok && len(b) == 0 {
			if gb, ok := g.([]byte); !ok || len(gb) != 0 {
				t.Fatalf("value %d: %#v → %#v", i, v, g)
			}
			continue
		}
		if k, ok := v.([]tuple.Key); ok && len(k) == 0 {
			if gk, ok := g.([]tuple.Key); !ok || len(gk) != 0 {
				t.Fatalf("value %d: %#v → %#v", i, v, g)
			}
			continue
		}
		if !reflect.DeepEqual(v, g) {
			t.Fatalf("value %d: sent %#v (%T), got %#v (%T)", i, v, v, g, g)
		}
	}
	type point struct{ X, Y int }
	err = send.Send(&Message{Batch: &TupleBatch{Tuples: []tuple.Tuple{{Value: point{1, 2}}}}})
	if err == nil || !strings.Contains(err.Error(), "protocol.point") {
		t.Fatalf("sending a struct value: %v; want an error naming protocol.point", err)
	}
}

// TestBinaryCoalescedBounds pins the coalescing contract: a frame built
// chunk by chunk with the exported header/chunk helpers decodes into
// one TupleBatch whose Bounds replay the exact chunk sequence.
func TestBinaryCoalescedBounds(t *testing.T) {
	chunks := [][]tuple.Tuple{
		{tuple.New(1, int64(10)), tuple.New(2, int64(20))},
		{tuple.New(3, nil)},
		{},
		{tuple.New(4, "s"), tuple.New(5, []tuple.Key{6, 7}), tuple.New(6, nil)},
	}
	frame := AppendBatchHeader(nil)
	for _, ch := range chunks {
		var err error
		if frame, err = AppendBatchChunk(frame, ch); err != nil {
			t.Fatalf("append chunk: %v", err)
		}
	}
	PatchBatchHeader(frame, len(chunks))

	var buf bytes.Buffer
	send, recv := binaryPair(&buf)
	if err := send.SendFrame(frame); err != nil {
		t.Fatalf("send frame: %v", err)
	}
	got, err := recv.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if got.Batch == nil {
		t.Fatalf("decoded %s, want batch", got.Kind())
	}
	var replayed [][]tuple.Tuple
	got.Batch.Chunks(func(ts []tuple.Tuple) {
		replayed = append(replayed, append([]tuple.Tuple(nil), ts...))
	})
	if len(replayed) != len(chunks) {
		t.Fatalf("replayed %d chunks, want %d", len(replayed), len(chunks))
	}
	for i := range chunks {
		if len(replayed[i]) != len(chunks[i]) {
			t.Fatalf("chunk %d: %d tuples, want %d", i, len(replayed[i]), len(chunks[i]))
		}
		for j := range chunks[i] {
			if !reflect.DeepEqual(chunks[i][j], replayed[i][j]) {
				t.Fatalf("chunk %d tuple %d: %+v, want %+v", i, j, replayed[i][j], chunks[i][j])
			}
		}
	}
}

// TestBinaryHostileInputs feeds corrupt frames to the binary decoder
// and requires clean errors — wrong kinds, hostile counts, truncated
// rows, trailing garbage — never a panic or a giant allocation.
func TestBinaryHostileInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty frame":          {},
		"unknown kind":         {0x7f},
		"batch no header":      {kindBatch},
		"batch huge nsub":      {kindBatch, 0xff, 0xff, 0xff, 0xff},
		"batch huge ntuples":   {kindBatch, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0},
		"batch cut row":        batchCutRow,
		"batch count boundary": batchCountBoundary,
		"batch unknown flags":  batchUnknownFlags,
		"batch tick flag":      batchTickFlag,
		"batch header stream":  batchHeaderStream,
		"batch stream flag":    batchStreamFlag,
		"batch cut at flags":   batchCutAtFlags,
		"plan huge routes":     hostilePlanRoutes,
		"plan cut route":       {kindPlan, 2, 0, 0, 1, 7},
		"resize trailing":      {kindResize, 2, 2, 9},
		"split huge set":       {kindSplit, 2, 0x7f, 1, 4},
		"state huge payload":   hostileStatePayload,
		"state trailing":       {kindState, 1, 0, 2, 8, 1, 0xaa, 0xbb},
		"batch trailing bytes": append(mustBatchFrame(t), 0xaa),
		"batch bad value tag":  {kindBatch, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 2, 2, 2, 2, 0, 0x6f},
		"flush short":          {kindFlush, 1, 2, 3},
		"report cut":           {kindReport, 0x80},
		// Five entries cannot fit six bytes, though the count alone could.
		"report huge keystats": {kindReport, 2, 0, 5, 1, 2, 3, 4, 5, 6},
		"merged huge count":    hostileMergedReports()[0],
		// One entry in six bytes, but a two-byte hash leaves no destination.
		"merged cut row":      {kindReport, 4, 0, 1, 7, 2, 2, 2, 0x80, 0x01},
		"ack cut":             {kindAck, 2},
		"resume trailing":     {kindResume, 2, 9},
		"start cut":           {kindStart, 2},
		"close trailing":      {kindClose, 2, 9},
		"harvest cut":         {kindHarvestReq, 2, 4},
		"harvested cut float": harvestedCutRow,
		"harvested huge list": harvestedBacklogPastFrame,
		// Kind 0x00, the gob frame of versions 6 and 7, is unknown.
		"gob garbage":      {0x00, 0xde, 0xad, 0xbe, 0xef},
		"hello cut":        {kindHello, 16, 6, 'w', 'o', 'r'},
		"welcome trailing": {kindWelcome, 16, 2, 9},
		"assign huge name": hostileAssignName,
		"shutdown cut":     {kindShutdown, 4, 'd'},
		"stats huge count": hostileStatsCount,
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			c := NewFramedCodec(readerOnly{bytes.NewReader(framed(payload))})
			if m, err := c.Recv(); err == nil {
				t.Fatalf("hostile frame decoded as %s", m.Kind())
			} else if errors.Is(err, io.EOF) && len(payload) > 0 {
				t.Fatalf("hostile frame read as clean EOF: %v", err)
			}
		})
	}
}

// The hostile batch frames the fuzz corpus under
// testdata/fuzz/FuzzBinaryHostile carries too. Each is one sub-batch.
var (
	// Two engine-shaped tuples (keys 5 and 300, seqs 7 and 9, every
	// other field hoisted), cut before the second row's seq delta.
	batchCutRow = []byte{kindBatch, 0, 0, 0, 1, 0, 0, 0, 2, subKnown, 2, 2, 5, 7, 0xac, 0x02}
	// A tuple costs at least two bytes (its key and its seq), so the
	// five bytes behind the header hold two rows: a count of three is
	// refused before a row is decoded.
	batchCountBoundary = []byte{kindBatch, 0, 0, 0, 1, 0, 0, 0, 3, subKnown, 2, 2, 1, 1, 2, 1, 7}
	// A flag bit this codec does not know.
	batchUnknownFlags = []byte{kindBatch, 0, 0, 0, 1, 0, 0, 0, 1, 0x40, 1, 1}
	// The two tuples of batchCutRow, whole, as a protocol-8 encoder sent
	// them: every flag set, bit 0x04 hoisting an emit tick of 0. The bit
	// is unknown now.
	batchTickFlag = []byte{kindBatch, 0, 0, 0, 1, 0, 0, 0, 2, 0x3f, 2, 2, 0, 0, 5, 7, 0xac, 0x02, 0x02}
	// The two tuples of batchCutRow, whole, as a protocol-9 encoder sent
	// them: every flag set, bit 0x08 hoisting an empty stream label. The
	// bit is unknown now.
	batchStreamFlag = []byte{kindBatch, 0, 0, 0, 1, 0, 0, 0, 2, 0x3b, 2, 2, 0, 5, 7, 0xac, 0x02, 0x02}
	// A protocol-9 hoisted stream (bit 0x08) whose length runs past the
	// frame: its flag is refused before the length is read.
	batchHeaderStream = []byte{kindBatch, 0, 0, 0, 1, 0, 0, 0, 1, 0x08, 9, 'R', 1, 1}
	// Flags that hoist fields the frame ends before.
	batchCutAtFlags = []byte{kindBatch, 0, 0, 0, 1, 0, 0, 0, 1, subKnown}
)

// The hostile frames of the control round's kinds (the fuzz corpus
// carries the same two): a plan whose route count the frame cannot hold,
// a state transfer whose payload length runs past the frame.
var (
	hostilePlanRoutes   = []byte{kindPlan, 2, 0, 0, 0xff, 0xff, 0x03, 1, 2, 3, 4}
	hostileStatePayload = []byte{kindState, 1, 0, 2, 8, 0x40, 0xaa, 0xbb}
)

// The hostile session frames the fuzz corpus carries too: a StageAssign
// whose name claims 2^32 bytes (its six integers and flags zero), and a
// worker's Stats claiming 2^32 connections.
var (
	hostileAssignName = []byte{kindAssign, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 'c'}
	hostileStatsCount = []byte{kindStats, 2, 'w', '0', 0x80, 0x80, 0x80, 0x80, 0x10, 1, 2, 3, 4, 5}
)

// The hostile harvest replies the fuzz corpus carries too. The row is
// stage, interval and index varints, a flags byte, six 8-byte floats
// and four varints; the backlog list follows it.
var (
	// A frame cut two bytes into the row's first float.
	harvestedCutRow = []byte{kindHarvestDone, 2, 4, 4, 0, 0x40, 0x59}
	// A whole row, then a backlog count of 2^21-1 with three bytes left.
	harvestedBacklogPastFrame = append(append([]byte{kindHarvestDone, 2, 4, 4, 1}, make([]byte, 6*8)...),
		0, 0, 0, 0, 0xff, 0xff, 0x7f, 1, 2, 3)
)

// TestHarvestedHostileBounds pins which check refuses each hostile
// harvest reply: the float read for the cut row, the count bound for the
// backlog.
func TestHarvestedHostileBounds(t *testing.T) {
	for _, tc := range []struct {
		payload []byte
		want    string
	}{
		{harvestedCutRow, "truncated 8-byte field"},
		{harvestedBacklogPastFrame, "count 2097151 of 1-byte elements exceeds 3 remaining bytes"},
	} {
		c := NewFramedCodec(readerOnly{bytes.NewReader(framed(tc.payload))})
		if _, err := c.Recv(); !errors.Is(err, ErrBinaryFrame) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("% x: err = %v, want %q", tc.payload, err, tc.want)
		}
	}
}

// TestBatchCountBound pins which check refuses the boundary count.
func TestBatchCountBound(t *testing.T) {
	c := NewFramedCodec(readerOnly{bytes.NewReader(framed(batchCountBoundary))})
	if _, err := c.Recv(); !errors.Is(err, ErrBinaryFrame) || !strings.Contains(err.Error(), "tuple count 3 exceeds frame") {
		t.Fatalf("count 3 over 5 bytes of rows: %v; want the count check to refuse it", err)
	}
}

// TestBatchFrameChecks pins which check refuses each hostile sub-batch.
func TestBatchFrameChecks(t *testing.T) {
	for frame, want := range map[*[]byte]string{
		&batchCutRow:        "truncated row 1 of 2",
		&batchUnknownFlags:  "unknown sub-batch flags 0x40",
		&batchTickFlag:      "unknown sub-batch flags 0x3f",
		&batchStreamFlag:    "unknown sub-batch flags 0x3b",
		&batchHeaderStream:  "unknown sub-batch flags 0x8",
		&batchCutAtFlags:    "bad uvarint",
		&batchCountBoundary: "tuple count 3 exceeds frame",
	} {
		c := NewFramedCodec(readerOnly{bytes.NewReader(framed(*frame))})
		if _, err := c.Recv(); !errors.Is(err, ErrBinaryFrame) || !strings.Contains(err.Error(), want) {
			t.Errorf("% x: %v; want ErrBinaryFrame %q", *frame, err, want)
		}
	}
}

func mustBatchFrame(t *testing.T) []byte {
	t.Helper()
	frame := AppendBatchHeader(nil)
	frame, err := AppendBatchChunk(frame, []tuple.Tuple{tuple.New(1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	PatchBatchHeader(frame, 1)
	return frame
}

// benchBatch builds a realistic steady-state batch of one shape, every
// tuple of small key, cost 1, state 1 and a rising seq.
// An engine batch is the cluster edge's own (nil values): a key and a
// seq delta a row, written in one pass. A fallback batch is an engine
// batch whose last tuple costs 2, so the encoder gives up its one pass
// at the last row and writes the chunk again. An app batch is an
// application edge's (a small int64 value on every tuple): key, seq and
// value vary. Scalar batches mix nil with small-int64 values (the
// count→topk edge), so a zero-alloc decode is possible; composite
// batches add []tuple.Key values (the parse→count edge), which
// inherently allocate one slice per value on decode.
func benchBatch(n int, shape string) []tuple.Tuple {
	r := &fuzzRNG{s: 0x5eed}
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{
			Key: tuple.Key(r.next() % 4096), Cost: 1, StateSize: 1,
			Seq: uint64(i),
		}
		switch {
		case shape == "engine":
		case shape == "fallback":
			if i == n-1 {
				ts[i].Cost = 2
			}
		case shape == "app", i%2 == 0:
			ts[i].Value = int64(r.next() % 100)
		case shape == "composite":
			ts[i].Value = []tuple.Key{tuple.Key(r.next() % 4096), tuple.Key(r.next() % 4096)}
		}
	}
	return ts
}

// discardRW swallows writes; reads never happen.
type discardRW struct{}

func (discardRW) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardRW) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTupleBatchCodec measures the data-plane hot path per chunk
// shape: one 256-tuple TupleBatch encoded and decoded per iteration. The
// scalar shapes must run amortized zero allocations per message in both
// directions (pooled scratch, retained decode storage).
func BenchmarkTupleBatchCodec(b *testing.B) {
	const batchSize = 256

	bench := func(b *testing.B, msg *Message) {
		// Each sub-benchmark sends (and receives) once before the timer
		// starts, so the retained buffers are grown and -benchtime 1x
		// reports the steady state: 0 allocs/op on the scalar rows.
		b.Run("encode", func(b *testing.B) {
			c := NewFramedCodec(discardRW{})
			if err := c.Send(msg); err != nil {
				b.Fatal(err)
			}
			sent := c.SentBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(msg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.SentBytes()-sent)/float64(b.N)/batchSize, "bytes/tuple")
		})
		b.Run("roundtrip", func(b *testing.B) {
			var buf bytes.Buffer
			send, recv := binaryPair(&buf)
			if err := send.Send(msg); err != nil {
				b.Fatal(err)
			}
			if _, err := recv.Recv(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := send.Send(msg); err != nil {
					b.Fatal(err)
				}
				m, err := recv.Recv()
				if err != nil {
					b.Fatal(err)
				}
				if len(m.Batch.Tuples) != batchSize {
					b.Fatalf("decoded %d tuples", len(m.Batch.Tuples))
				}
			}
		})
	}

	for _, shape := range []string{"engine", "fallback", "app", "scalar", "composite"} {
		msg := &Message{Batch: &TupleBatch{Tuples: benchBatch(batchSize, shape)}}
		b.Run(shape, func(b *testing.B) { bench(b, msg) })
	}
}

// mergedReport is a valid report over 3 instances.
func mergedReport() *LoadReport {
	return &LoadReport{
		Interval: 9, Tasks: 3, Capacity: 100, Emitted: 50, Budget: 60, Routable: true,
		Keys: []stats.KeyStat{
			{Key: 4, Cost: 9, Freq: 9, Mem: 20, Dest: 2, Hash: 1},
			{Key: 1, Cost: 5, Freq: 5, Mem: 7, Dest: 0, Hash: 0},
			{Key: 8, Cost: 5, Freq: 5, Mem: 0, Dest: 1, Hash: 1},
		},
		Split: []SplitEntry{{Key: 4, Fan: 2}, {Key: 8, Fan: 3}},
	}
}

// hostileMergedReports are binary report frames a controller must
// survive: an entry count the frame cannot hold (the decoder's to
// refuse), then well-formed frames whose run names an instance the
// stage does not have, a negative one, entries out of canonical order,
// an instance count past MaxTasks with no entries, which a controller
// would size its load vector by, a split key fanned past the stage's
// instances and a split set out of key order (CheckMerged's to refuse).
// The fuzz corpus under testdata/fuzz/FuzzBinaryHostile carries the same
// seven.
func hostileMergedReports() [][]byte {
	frame := func(mutate func(*LoadReport)) []byte {
		r := mergedReport()
		mutate(r)
		return appendReport(nil, r)
	}
	return [][]byte{
		{kindReport, 4, 0, 0xff, 0xff, 0x7f},
		frame(func(r *LoadReport) { r.Keys[1].Dest = 3 }),
		frame(func(r *LoadReport) { r.Keys[2].Dest = -1 }),
		frame(func(r *LoadReport) { r.Keys[0], r.Keys[1] = r.Keys[1], r.Keys[0] }),
		frame(func(r *LoadReport) { r.Keys, r.Tasks = nil, 1<<40 }),
		frame(func(r *LoadReport) { r.Split[1].Fan = 4 }),
		frame(func(r *LoadReport) { r.Split[0], r.Split[1] = r.Split[1], r.Split[0] }),
	}
}

// TestMergedReportWire pins the report on the wire: what arrives is what
// was sent, the decoder hands out its two buffers alternately — a run
// stays intact across the next report and is recycled by the one after —
// and the hostile frames that decode are stopped by CheckMerged.
func TestMergedReportWire(t *testing.T) {
	var buf bytes.Buffer
	send, recv := binaryPair(&buf)
	var got [3]*LoadReport
	for i := range got {
		want := mergedReport()
		want.Interval = int64(i)
		want.Keys[0].Cost += int64(i)
		if err := send.Send(&Message{Report: want}); err != nil {
			t.Fatalf("send: %v", err)
		}
		m, err := recv.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		got[i] = m.Report
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("report %d arrived as %+v, sent %+v", i, got[i], want)
		}
		if err := got[i].CheckMerged(); err != nil {
			t.Fatalf("valid report refused: %v", err)
		}
		if i == 1 && got[0].Keys[0].Cost != 9 {
			t.Fatalf("report 0's run was overwritten by report 1")
		}
	}
	if &got[2].Keys[0] != &got[0].Keys[0] {
		t.Fatalf("report 2 did not recycle report 0's buffer")
	}

	for i, frame := range hostileMergedReports() {
		c := NewFramedCodec(readerOnly{bytes.NewReader(framed(frame))})
		m, err := c.Recv()
		if i == 0 {
			if !errors.Is(err, ErrBinaryFrame) {
				t.Fatalf("count past the frame: decoded %v, err %v", m, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hostile report %d must decode (the check refuses it): %v", i, err)
		}
		if m.Report.CheckMerged() == nil {
			t.Fatalf("hostile report %d passed the check: %d instances, %+v", i, m.Report.Tasks, m.Report.Keys)
		}
	}
	if err := (&LoadReport{Tasks: 2}).CheckMerged(); err != nil {
		t.Fatalf("an empty round was refused: %v", err)
	}
	if err := (&LoadReport{Tasks: MaxTasks}).CheckMerged(); err != nil {
		t.Fatalf("a round of MaxTasks instances was refused: %v", err)
	}
	for _, n := range []int{-1, MaxTasks + 1} {
		if (&LoadReport{Tasks: n}).CheckMerged() == nil {
			t.Fatalf("a report of %d instances passed the check", n)
		}
	}
}
