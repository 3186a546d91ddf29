package protocol

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/state"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// windowPayload builds a real serialized window via state.Codec: a
// store filled deterministically from the rng, one key extracted and
// encoded — the exact bytes a cross-process migration ships.
func windowPayload(r *fuzzRNG, n int) []byte {
	st := state.NewStore(r.intn(3) + 1)
	k := tuple.Key(r.next()%64 + 1)
	for it := 0; it < r.intn(4)+1; it++ {
		for e := 0; e < n%16; e++ {
			st.Add(k, state.Entry{Value: int64(r.next() % 1e6), Size: int64(r.intn(8) + 1)})
		}
		st.EndInterval()
	}
	p, err := state.Codec{}.Encode(st.Extract(k), int64(r.next()%1e6))
	if err != nil {
		panic(err)
	}
	return p
}

// fuzzRNG is a tiny deterministic splitmix64 over the fuzz input, so
// one (seed, shape) pair expands into arbitrary message contents
// without the fuzzer having to guess framing bytes.
type fuzzRNG struct{ s uint64 }

func (r *fuzzRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *fuzzRNG) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// buildMessage deterministically expands (seed, kind, n) into one
// message of the chosen kind with n-scaled contents — including the
// empty-table / empty-stats / zero-Moved corners when n lands on 0.
func buildMessage(seed uint64, kind, n int) *Message {
	r := &fuzzRNG{s: seed}
	entries := func(c int) []RouteEntry {
		if c == 0 {
			return nil
		}
		out := make([]RouteEntry, c)
		for i := range out {
			out[i] = RouteEntry{Key: tuple.Key(r.next()), Dest: r.intn(64)}
		}
		return out
	}
	switch kind % 19 {
	case 0:
		rep := &LoadReport{
			Interval: int64(r.intn(1000)),
			Tasks:    r.intn(32) + 1, Capacity: int64(r.next() % 1e6),
			Emitted: int64(r.next() % 1e6), Budget: int64(r.next() % 1e6),
			Routable: r.intn(2) == 0, Resizable: r.intn(2) == 0,
		}
		for i := 0; i < r.intn(n+1); i++ {
			rep.Split = append(rep.Split, SplitEntry{Key: tuple.Key(r.next()), Fan: r.intn(16) + 2})
		}
		for i := 0; i < n; i++ {
			rep.Keys = append(rep.Keys, stats.KeyStat{
				Key: tuple.Key(r.next()), Cost: int64(r.intn(1e6)), Freq: int64(r.intn(1e6)),
				Mem: int64(r.intn(1e6)), Dest: r.intn(64), Hash: r.intn(64),
			})
		}
		return &Message{Report: rep}
	case 1:
		return &Message{Plan: &PlanAnnounce{
			Interval: int64(r.intn(1000)),
			Table:    entries(n),
			Moved:    entries(r.intn(n + 1)),
			Algorithm: map[int]string{
				0: "", 1: "Mixed", 2: "MinTable",
			}[r.intn(3)],
			GenTime: time.Duration(r.next() % uint64(time.Second)),
		}}
	case 2:
		delta := 1
		if r.intn(2) == 0 {
			delta = -1
		}
		return &Message{ResizeCmd: &Resize{Interval: int64(r.intn(1000)), Delta: delta}}
	case 3:
		var payload []byte
		if n > 0 {
			if r.intn(2) == 0 {
				// A real serialized window, as the cross-process
				// migration path ships: buckets of tagged entries.
				payload = windowPayload(r, n)
			} else {
				payload = make([]byte, n%4096)
				for i := range payload {
					payload[i] = byte(r.next())
				}
			}
		}
		return &Message{State: &StateTransfer{
			Key: tuple.Key(r.next()), From: r.intn(64), To: r.intn(64),
			Size: int64(r.intn(1e6)), Payload: payload,
		}}
	case 4:
		return &Message{Ack: &Ack{TaskID: r.intn(64), Interval: int64(r.intn(1000))}}
	case 5:
		return &Message{Resume: &Resume{Interval: int64(r.intn(1000))}}
	case 6:
		ann := &SplitAnnounce{Interval: int64(r.intn(1000))}
		for i := 0; i < n%64; i++ {
			ann.Set = append(ann.Set, SplitEntry{Key: tuple.Key(r.next()), Fan: r.intn(16) + 2})
		}
		return &Message{Split: ann}
	case 7:
		// A coalesced frame: several FeedBatch chunks behind Bounds (two
		// or more, so the binary wire hands the Bounds back), engine-shaped
		// but for one tuple in some that breaks a hoist (breakChunk).
		b := &TupleBatch{}
		for chunk := 0; chunk < 2+r.intn(3); chunk++ {
			ts, _ := breakChunk(r, n%64, hoists[r.intn(len(hoists))], positions[r.intn(len(positions))])
			b.Tuples = append(b.Tuples, ts...)
			b.Bounds = append(b.Bounds, len(b.Tuples))
		}
		return &Message{Batch: b}
	case 8:
		roles := []string{"worker", "control", "data"}
		return &Message{Hello: &Hello{
			Proto: r.intn(4), Role: roles[r.intn(3)],
			Worker:   map[int]string{0: "", 1: "w0", 2: "worker-17"}[r.intn(3)],
			Stage:    r.intn(8),
			DataAddr: map[int]string{0: "", 1: "/tmp/w.sock", 2: "127.0.0.1:7701"}[r.intn(3)],
		}}
	case 9:
		return &Message{Welcome: &Welcome{Proto: r.intn(4), ID: r.intn(64)}}
	case 10:
		return &Message{Assign: &StageAssign{
			Stage: r.intn(8), Name: "count", Op: "statefulcount",
			Instances: r.intn(32) + 1, Window: r.intn(8),
			Algorithm: map[int]string{0: "", 1: "Mixed", 2: "Shuffle"}[r.intn(3)],
			Capacity:  int64(r.next() % 1e6), Budget: int64(r.next() % 1e6),
			Control:    r.intn(2) == 0,
			Downstream: map[int]string{0: "", 1: "/tmp/d.sock"}[r.intn(2)],
			DownStage:  r.intn(8),
		}}
	case 11:
		return &Message{Start: &StartInterval{
			Interval: int64(r.intn(1000)), Emit: int64(r.next() % 1e6),
		}}
	case 12:
		return &Message{Close: &CloseStage{Stage: r.intn(8)}}
	case 13:
		return &Message{Harvest: &HarvestReq{
			Stage: r.intn(8), Interval: int64(r.intn(1000)), Emit: int64(r.next() % 1e6),
		}}
	case 14:
		// Finite floats only: a NaN never equals itself, so the exact
		// comparison could not pass.
		hd := &HarvestDone{
			Stage: r.intn(8), Interval: int64(r.intn(1000)),
			Row: metrics.Interval{
				Index: int64(r.intn(1000)), Throughput: float64(r.next()%1e9) / 7,
				LatencyMs: float64(r.intn(1e6)) / 1000, Skewness: 1 + float64(r.intn(1e4))/1000,
				MaxTheta: float64(r.intn(1e4)) / 1000, MigrationPct: float64(r.intn(1e5)) / 1000,
				PlanMs: float64(r.intn(1e6)) / 1000, TableSize: r.intn(4096),
				Emitted: int64(r.next() % 1e6), Rebalanced: r.intn(2) == 0,
				ScaleOuts: r.intn(2), ScaleIns: r.intn(2),
			},
			Processed: int64(r.next() % 1e9),
		}
		for i := 0; i < n%64; i++ {
			hd.Backlog = append(hd.Backlog, int64(r.next()%1e6))
		}
		return &Message{Harvested: hd}
	case 15:
		b := &TupleBatch{}
		for i := 0; i < n%512; i++ {
			t := tuple.Tuple{
				Key: tuple.Key(r.next()), Cost: int64(r.intn(16) + 1),
				StateSize: int64(r.intn(16)), Seq: r.next(),
			}
			switch r.intn(3) {
			case 0: // nil payload
			case 1:
				t.Value = int64(r.intn(1e6))
			default:
				t.Value = []tuple.Key{tuple.Key(r.next()), tuple.Key(r.next())}
			}
			b.Tuples = append(b.Tuples, t)
		}
		return &Message{Batch: b}
	case 16:
		return &Message{FlushReq: &Flush{Seq: r.next()}}
	case 17:
		return &Message{Bye: &Shutdown{Reason: map[int]string{0: "", 1: "done"}[r.intn(2)]}}
	default:
		st := &Stats{Worker: map[int]string{0: "", 1: "w1"}[r.intn(2)]}
		for i := 0; i < n%8; i++ {
			st.Conns = append(st.Conns, ConnStat{
				Name: "conn", Sent: int64(r.next() % 1e9), Rcvd: int64(r.next() % 1e9),
			})
		}
		return &Message{ConnStats: st}
	}
}

// FuzzCodecRoundTrip drives arbitrary messages of every kind through
// the framed codec and requires the decoded value to reproduce the
// original exactly — the property the wire transport's equivalence
// with the loopback rests on. Seeds cover every kind at empty,
// single-entry and many-entry sizes (empty routing tables, multi-entry
// Moved sets, reports with an empty run included).
func FuzzCodecRoundTrip(f *testing.F) {
	for kind := 0; kind < 19; kind++ {
		for _, n := range []int{0, 1, 17} {
			f.Add(uint64(kind*31+n), kind, n)
		}
	}
	f.Add(uint64(1), 0, 5) // a report whose split set carries three (key, fan) pairs
	f.Fuzz(func(t *testing.T, seed uint64, kind, n int) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 12
		orig := buildMessage(seed, kind, n)

		var buf bytes.Buffer
		c := NewFramedCodec(&buf)
		if err := c.Send(orig); err != nil {
			t.Fatalf("send %s: %v", orig.Kind(), err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", orig.Kind(), err)
		}
		if got.Kind() != orig.Kind() {
			t.Fatalf("kind %s decoded as %s", orig.Kind(), got.Kind())
		}
		// The decoder does not distinguish nil from empty slices;
		// normalize before the exact comparison.
		if !reflect.DeepEqual(normalize(orig), normalize(got)) {
			t.Fatalf("round trip altered the message:\n sent %#v\n got  %#v", orig, got)
		}

		// A second message on the same stream must also survive (it
		// reuses the buffers the first one grew).
		orig2 := buildMessage(seed^0xabcdef, kind+1, n/2+1)
		if err := c.Send(orig2); err != nil {
			t.Fatalf("second send: %v", err)
		}
		got2, err := c.Recv()
		if err != nil {
			t.Fatalf("second recv: %v", err)
		}
		if !reflect.DeepEqual(normalize(orig2), normalize(got2)) {
			t.Fatalf("second round trip altered the message:\n sent %#v\n got  %#v", orig2, got2)
		}
	})
}

// FuzzFramedTruncation cuts a framed stream at an arbitrary byte
// offset and replays the prefix: the reader must deliver only intact
// messages (bit-identical to the originals) followed by either a clean
// EOF (cut on a frame boundary) or an error — never a corrupt or
// phantom message. This is the short-read safety property of the socket
// transport.
func FuzzFramedTruncation(f *testing.F) {
	for kind := 0; kind < 19; kind++ {
		f.Add(uint64(kind*7+1), kind, 5, kind*13)
	}
	f.Fuzz(func(t *testing.T, seed uint64, kind, n, cut int) {
		if n < 0 {
			n = -n
		}
		n %= 1 << 10
		var wire bytes.Buffer
		sender := NewFramedCodec(&wire)
		msgs := make([]*Message, 3)
		for i := range msgs {
			msgs[i] = buildMessage(seed+uint64(i), kind+i, n)
			if err := sender.Send(msgs[i]); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		full := wire.Bytes()
		c := cut
		if c < 0 {
			c = -c
		}
		c %= len(full) + 1

		rc := NewFramedCodec(readerOnly{bytes.NewReader(full[:c])})
		decoded := 0
		for {
			// Any error ends the replay — a truncation, or a decode error
			// on what a cut left of a frame; what must never happen is a
			// silent wrong message.
			got, err := rc.Recv()
			if err != nil {
				break
			}
			if decoded >= len(msgs) {
				t.Fatalf("decoded %d messages from a %d-message stream", decoded+1, len(msgs))
			}
			if !reflect.DeepEqual(normalize(msgs[decoded]), normalize(got)) {
				t.Fatalf("prefix cut at %d delivered a corrupt message %d:\n sent %#v\n got  %#v",
					c, decoded, msgs[decoded], got)
			}
			decoded++
		}
		if c == len(full) && decoded != len(msgs) {
			t.Fatalf("full stream decoded only %d of %d messages", decoded, len(msgs))
		}
	})
}

// FuzzBinaryHostile hands the binary decoder a raw attacker-controlled
// frame payload: whatever the bytes, Recv must return a message or an
// error — never panic, never attempt an allocation sized from an
// unvalidated count — and so must state.Codec on a state frame's
// payload. Seeds cover a valid frame of every kind plus known-hostile
// shapes (giant counts, cut rows, bad tags).
func FuzzBinaryHostile(f *testing.F) {
	for _, kind := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 16} {
		var wire bytes.Buffer
		c := NewFramedCodec(&wire)
		if err := c.Send(buildMessage(uint64(kind)*977, kind, 9)); err != nil {
			f.Fatalf("seed kind %d: %v", kind, err)
		}
		f.Add(wire.Bytes()[frameHeaderLen:]) // strip the length prefix
	}
	f.Add([]byte{kindBatch, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{kindBatch, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0})
	f.Add(batchCutRow)
	f.Add(batchCountBoundary)
	f.Add(batchUnknownFlags)
	f.Add(batchTickFlag)
	f.Add(batchStreamFlag)
	f.Add(batchHeaderStream)
	f.Add(batchCutAtFlags)
	f.Add(harvestedCutRow)
	f.Add(harvestedBacklogPastFrame)
	f.Add(hostilePlanRoutes)
	f.Add(hostileStatePayload)
	f.Add([]byte{kindReport, 0x80})
	for _, hostile := range hostileMergedReports() {
		f.Add(hostile)
	}
	f.Add([]byte{kindFlush, 1, 2, 3})
	f.Add([]byte{0x7f})
	f.Add([]byte{0x00, 0xde, 0xad}) // the gob frame of versions 6 and 7
	for _, kind := range []int{9, 10, 17, 18} {
		var wire bytes.Buffer
		c := NewFramedCodec(&wire)
		if err := c.Send(buildMessage(uint64(kind)*977, kind, 9)); err != nil {
			f.Fatalf("seed kind %d: %v", kind, err)
		}
		f.Add(wire.Bytes()[frameHeaderLen:])
	}
	f.Add(hostileAssignName)
	f.Add(hostileStatsCount)
	f.Add(stateWindowFrame())
	f.Add(hostileStateBuckets)
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > maxFrame {
			return
		}
		c := NewFramedCodec(readerOnly{bytes.NewReader(framed(payload))})
		for {
			m, err := c.Recv()
			if err != nil {
				break // any error is acceptable; panics are not
			}
			if m.Kind() == "empty" {
				t.Fatalf("hostile payload decoded to an empty message")
			}
			if m.State != nil {
				_, _, _ = state.Codec{}.Decode(m.State.Payload)
			}
			if m.Report != nil && m.Report.CheckMerged() == nil {
				// What the check passes a controller sizes its load
				// vector by and indexes, every round.
				snap := stats.Snapshot{ND: m.Report.Tasks, Keys: m.Report.Keys}
				snap.Loads()
			}
		}
	})
}

// TestHostileBatchSeedsCommitted keeps the batch, harvest and report
// seeds of the fuzz corpus equal to the frames
// binary_test.go names, and the cut
// row equal to what the encoder writes for its two tuples, one byte
// short — so a layout change that breaks one fails here instead of
// leaving a seed that no longer reaches the check it was written for.
func TestHostileBatchSeedsCommitted(t *testing.T) {
	full := AppendBatchHeader(nil)
	full, err := AppendBatchChunk(full, []tuple.Tuple{
		{Key: 5, Cost: 1, StateSize: 1, Seq: 7},
		{Key: 300, Cost: 1, StateSize: 1, Seq: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	PatchBatchHeader(full, 1)
	if !bytes.Equal(batchCutRow, full[:len(full)-1]) {
		t.Fatalf("batchCutRow is % x; the encoder cut one byte short writes % x", batchCutRow, full[:len(full)-1])
	}
	for name, want := range map[string][]byte{
		"seed-cut-row":                      batchCutRow,
		"seed-count-boundary":               batchCountBoundary,
		"seed-unknown-flags":                batchUnknownFlags,
		"seed-tick-flag":                    batchTickFlag,
		"seed-stream-flag":                  batchStreamFlag,
		"seed-header-stream-past-frame":     batchHeaderStream,
		"seed-cut-after-flags":              batchCutAtFlags,
		"seed-harvested-cut-row":            harvestedCutRow,
		"seed-harvested-backlog-past-frame": harvestedBacklogPastFrame,
		"seed-merged-dest-past-tasks":       hostileMergedReports()[1],
		"seed-merged-dest-negative":         hostileMergedReports()[2],
		"seed-merged-out-of-order":          hostileMergedReports()[3],
		"seed-report-huge-tasks":            hostileMergedReports()[4],
		"seed-report-split-fan-past-tasks":  hostileMergedReports()[5],
		"seed-report-split-out-of-order":    hostileMergedReports()[6],
		"seed-assign-huge-name":             hostileAssignName,
		"seed-stats-huge-count":             hostileStatsCount,
		"seed-state-window":                 stateWindowFrame(),
		"seed-state-huge-buckets":           hostileStateBuckets,
	} {
		b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBinaryHostile", name))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		got, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil || got != string(want) {
			t.Fatalf("%s holds %q (%v), want %q", name, got, err, want)
		}
	}
}

// readerOnly hides any Write method so NewFramedCodec's writer half is
// inert in replay tests.
type readerOnly struct{ r io.Reader }

func (ro readerOnly) Read(p []byte) (int, error)  { return ro.r.Read(p) }
func (ro readerOnly) Write(p []byte) (int, error) { return len(p), nil }

// stateWindowFrame is a state frame carrying a real two-bucket window
// (state.Codec), the seed the corpus's state payloads grow from.
func stateWindowFrame() []byte {
	st := state.NewStore(2)
	st.Add(9, state.Entry{Value: int64(5), Size: 2})
	st.Add(9, state.Entry{Value: "w", Size: 1})
	st.EndInterval()
	st.Add(9, state.Entry{Value: []tuple.Key{1, 2}, Size: 3})
	p, err := state.Codec{}.Encode(st.Extract(9), 6)
	if err != nil {
		panic(err)
	}
	return appendState(nil, &StateTransfer{Key: 9, From: 0, To: 1, Size: 6, Payload: p})
}

// hostileStateBuckets is a state frame whose payload claims 2^32
// buckets after its key, size and memory.
var hostileStateBuckets = []byte{kindState, 9, 0, 2, 12, 11, 9, 12, 12, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 2, 3}

// normalize maps nil slices to empty ones where the decoder hands back
// retained storage, which is empty but not nil once it has grown, or
// leaves an empty list out.
func normalize(m *Message) *Message {
	c := *m
	if c.Report != nil {
		r := *c.Report
		if r.Keys == nil {
			r.Keys = []stats.KeyStat{}
		}
		c.Report = &r
	}
	if c.State != nil {
		s := *c.State
		if len(s.Payload) == 0 {
			s.Payload = []byte{}
		}
		c.State = &s
	}
	if c.Batch != nil {
		b := *c.Batch
		if b.Tuples == nil {
			b.Tuples = []tuple.Tuple{}
		}
		c.Batch = &b
	}
	return &c
}
