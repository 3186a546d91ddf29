// Package protocol defines the wire messages of the elastic control
// workflow — the rebalance round of Fig. 5 plus the resize and split
// commands of the unified control plane — and a codec for exchanging
// them over any net.Conn-like transport: a hand-rolled binary wire
// (binary.go: kind-dispatched frames, a zero-reflection encoding for
// every message — tuple batches as one row per tuple carrying only the
// fields that vary inside its chunk — and the only encoding the cluster
// speaks). The in-process engine speaks this protocol through
// internal/control's local call (messages passed by pointer); the same
// bytes flow over a real network boundary (the Codec-over-pipe
// transport is pinned equivalent), so a multi-process deployment can
// speak it unchanged:
//
//	stage      → controller  : LoadReport        (step 1)
//	controller → stage       : Commands          (steps 3–4)
//	                           [PlanAnnounce | Resize | SplitAnnounce]*
//
// A round is these two messages. The stage applies the list in order
// on a stage sealed at the interval barrier — state migrates inside
// the stage's host (steps 5–6) — and the next interval's start resumes
// it (step 7), so no per-key transfer, acknowledgement or resume signal
// crosses the wire. A held round is an empty list.
//
// The report is the snapshot. The stage side hands over the merged,
// KeyStatLess-ordered run its interval close produced, each entry
// carrying its destination — by reference in process, as one
// more column on the wire — so nothing is split per task on one side
// and merged back on the other. What arrives is outside input: the
// controller side runs CheckMerged before any policy sees the snapshot.
// A decoded report's Keys alias storage the codec recycles and stay
// intact until the second following report, the stage snapshot's own
// lifetime when the codec carries one stage's rounds; a receiver whose
// codec carries several stages' (a cluster coordinator's session with a
// worker) keeps each stage's runs itself.
package protocol

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/balance"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// LoadReport is step 1: the interval's statistics, the whole round in one
// message. Keys is the stage's snapshot as its interval close merged it
// — every task's entries in one stats.KeyStatLess-ordered run, each with
// its Dest and its hash destination h(k), so the controller reconstructs
// the planner-facing record without sharing the ring. Receivers must
// CheckMerged before trusting Keys. The stage context fields (Tasks
// through Split) carry the operator-level facts a remote controller
// needs to judge utilization (the long-term path) without a second
// channel: how many tasks reported, the per-task service capacity, what
// the spout emitted versus its configured budget (the
// backpressure-corrected demand estimate), whether the stage routes by
// assignment (and so can rebalance), and whether its instance set can
// change (assignment over a consistent-hash ring, so Resize commands
// apply).
type LoadReport struct {
	Interval int64
	Keys     []stats.KeyStat

	Tasks     int
	Capacity  int64
	Emitted   int64
	Budget    int64
	Routable  bool
	Resizable bool
	// Split is the stage's current split set, each key with the fan it
	// runs at, in ascending key order — the pairs SplitAnnounce carries —
	// so the controller plans around the instances the split keys occupy
	// without a second channel.
	Split []SplitEntry
}

// MaxTasks bounds a report's instance count. A controller sizes its load
// vector by Tasks every round (stats.Snapshot.Loads), and a report with
// no keys says nothing else about it, so without a bound one report could
// make the controller allocate by any number a peer sent. The stages in
// the tree run tens of instances.
const MaxTasks = 1 << 16

// CheckMerged validates a report as outside input: the instance count is
// in [0, MaxTasks], every entry's destination names one of the stage's
// Tasks instances and the entries are in canonical snapshot order, and
// the split set is in ascending key order with every fan in [2, Tasks].
// A controller that skipped this would index its load vector with
// whatever a peer sent.
func (r *LoadReport) CheckMerged() error {
	if r.Tasks < 0 || r.Tasks > MaxTasks {
		return fmt.Errorf("protocol: report names %d instances (at most %d)", r.Tasks, MaxTasks)
	}
	for i, e := range r.Split {
		if e.Fan < 2 || e.Fan > r.Tasks {
			return fmt.Errorf("protocol: report splits key %d %d ways over %d instances", e.Key, e.Fan, r.Tasks)
		}
		if i > 0 && e.Key <= r.Split[i-1].Key {
			return fmt.Errorf("protocol: report split entry %d is out of order", i)
		}
	}
	for i := range r.Keys {
		if d := r.Keys[i].Dest; d < 0 || d >= r.Tasks {
			return fmt.Errorf("protocol: report entry %d names instance %d of %d", i, d, r.Tasks)
		}
		if i > 0 && stats.KeyStatLess(r.Keys[i], r.Keys[i-1]) {
			return fmt.Errorf("protocol: report entry %d is out of order", i)
		}
	}
	return nil
}

// RouteEntry is one routing-table pair (k, d).
type RouteEntry struct {
	Key  tuple.Key
	Dest int
}

// PlanAnnounce is steps 3–4: the new assignment function F′ (as the
// explicit table A′; the hash part is shared configuration) and the
// migration set Δ(F, F′); the stage migrates the keys in Moved before
// the next interval opens.
// Algorithm and GenTime carry the planner's identity and wall-clock
// planning latency for reporting (the PlanMs metric).
type PlanAnnounce struct {
	Table     []RouteEntry
	Moved     []RouteEntry // key → new destination
	Algorithm string
	GenTime   time.Duration
}

// Resize is the elastic command of the unified control plane: change
// the stage's instance set by Delta (+1 scale-out, −1 scale-in). The
// receiving side grows or drains-and-retires accordingly, migrating the
// keys whose destination changes.
type Resize struct {
	Delta int
}

// SplitEntry is one hot key's split directive: replicate across Fan
// instances. The receiving stage resolves the replica ring (home +
// Fan−1 successors) from its live assignment at apply time, so the
// announcement stays valid across a rebalance applied earlier in the
// same round.
type SplitEntry struct {
	Key tuple.Key
	Fan int
}

// SplitAnnounce publishes the complete hot-key split set for the
// interval: keys present become (or stay) split, keys absent fold
// back.
type SplitAnnounce struct {
	Set []SplitEntry
}

// Commands answers a LoadReport and closes the round: the policies'
// commands for Interval, the reported interval, in the order they
// emitted them. The entries share that interval. An empty List holds
// the round, and so does a reply to any other interval.
type Commands struct {
	Interval int64
	List     []Command
}

// Command is one entry of a Commands list: exactly one field is
// non-nil.
type Command struct {
	Plan   *PlanAnnounce
	Resize *Resize
	Split  *SplitAnnounce
}

// Ack is a session message only: a worker confirms a StageAssign,
// StartInterval or CloseStage with it. TaskID names the stage (−1 for a
// start, which covers every stage the worker hosts).
type Ack struct {
	TaskID   int
	Interval int64
}

// Hello opens every cluster connection: the dialing side identifies
// itself and its intent before any other traffic. Role is "worker"
// (a worker process registering with the coordinator; DataAddr names
// the address its data-plane listener accepts tuple batches on) or
// "data" (a data-plane batch stream into Stage).
type Hello struct {
	Proto    int
	Role     string
	Worker   string
	Stage    int
	DataAddr string
}

// Welcome answers a Hello: the accepting side confirms the protocol
// version and assigns the connection an id (for workers, their
// registration index).
type Welcome struct {
	Proto int
	ID    int
}

// StageAssign places one pipeline stage on a worker: the resolved
// stage declaration's plain fields (topology.StageSpec: operator by
// registered name, instance count, window, routing algorithm, declared
// capacity, whether it is the recorded stage) and the spout budget,
// plus the data-plane address of the downstream stage's host (empty
// for the last stage, whose emissions are discarded after the terminal
// operator runs).
type StageAssign struct {
	Stage     int
	Name      string
	Op        string
	Instances int
	Window    int
	Algorithm string
	Capacity  int64
	Target    bool
	Budget    int64
	// Control tells the worker to run the stage's control round on its
	// session at every harvest (set when the stage has coordinator-side
	// policies; planner-less stages skip the control plane entirely).
	Control    bool
	Downstream string
	DownStage  int
}

// StartInterval opens interval Interval on every stage a worker hosts.
// Emit carries the coordinator's post-throttle emission decision so
// workers stamp the same Emitted into their load reports as a
// single-process run would.
type StartInterval struct {
	Interval int64
	Emit     int64
}

// CloseStage asks the worker hosting Stage to close its interval
// (fold splits, flush operators, drain residual emissions downstream).
// The worker flushes its downstream data connection before acking, so
// acks arriving in pipeline order guarantee every tuple of the
// interval has been enqueued at its destination — the cascading
// CloseInterval of the single-process engine, spelled over the wire.
type CloseStage struct {
	Stage int
}

// HarvestReq asks the worker hosting Stage to end the interval:
// harvest statistics, run the stage's control round against the
// coordinator (its LoadReport and the coordinator's Commands, on the
// same session), and answer with HarvestDone. Emit is the interval's
// true post-draw emission — it can be lower than StartInterval.Emit
// when a finite source ended mid-interval — so the round's load reports
// carry the exact Emitted a single-process run would.
type HarvestReq struct {
	Stage    int
	Interval int64
	Emit     int64
}

// HarvestDone closes a stage's interval from the worker side: Row is
// the stage's finished metrics row — the worker ran the whole interval
// end (harvest, control round, resizes, queueing model) on its stage, as
// a single-process engine does — Backlog is the stage's post-model
// per-instance backlog, which the coordinator throttles the next
// interval on, and Processed is the stage's cumulative arrived-tuple
// count for zero-loss accounting.
type HarvestDone struct {
	Stage     int
	Interval  int64
	Row       metrics.Interval
	Backlog   []int64
	Processed int64
}

// TupleBatch is the data plane: one or more FeedBatch-sized chunks of
// tuples streaming into a remote stage. An uncoalesced batch (the PR 9
// wire shape) carries one chunk and leaves Bounds nil. A coalesced
// frame packs several FeedBatch chunks into one message; Bounds then
// lists the end offset of each chunk in Tuples (ascending, last ==
// len(Tuples)), so the receiver replays the sender's exact FeedBatch
// call sequence — the property the bit-identical equivalence pins
// depend on (chunk boundaries drive round-robin shuffle routing and
// arrival accounting).
type TupleBatch struct {
	Tuples []tuple.Tuple
	Bounds []int
}

// Flush is the data-plane barrier: the sender stamps a sequence
// number, the receiver enqueues everything received before it and
// echoes the same message back. A returned Flush therefore proves
// every prior TupleBatch on the connection has been fed to the stage.
type Flush struct {
	Seq uint64
}

// Shutdown ends a session cleanly: the worker stops its engines,
// answers with its connection Stats, and exits.
type Shutdown struct {
	Reason string
}

// ConnStat is one connection's byte and message counters, by name. A
// message is one frame on the wire, so with frame coalescing SentMsgs
// counts coalesced frames, not the FeedBatch chunks packed inside them.
type ConnStat struct {
	Name     string
	Sent     int64
	Rcvd     int64
	SentMsgs int64
	RcvdMsgs int64
}

// Stats reports a worker's per-connection byte counters at shutdown,
// so the coordinator can print the full cluster's control- and
// data-plane bandwidth table.
type Stats struct {
	Worker string
	Conns  []ConnStat
}

// Message is the envelope union; exactly one field is non-nil.
type Message struct {
	Report   *LoadReport
	Commands *Commands

	// Cluster session messages (handshake, placement, interval drive,
	// data plane) — spoken only by internal/cluster's socket transport.
	Ack       *Ack
	Hello     *Hello
	Welcome   *Welcome
	Assign    *StageAssign
	Start     *StartInterval
	Close     *CloseStage
	Harvest   *HarvestReq
	Harvested *HarvestDone
	Batch     *TupleBatch
	FlushReq  *Flush
	Bye       *Shutdown
	ConnStats *Stats
}

// Kind names the populated variant, for logging and dispatch.
func (m *Message) Kind() string {
	switch {
	case m.Report != nil:
		return "report"
	case m.Commands != nil:
		return "commands"
	case m.Ack != nil:
		return "ack"
	case m.Hello != nil:
		return "hello"
	case m.Welcome != nil:
		return "welcome"
	case m.Assign != nil:
		return "assign"
	case m.Start != nil:
		return "start"
	case m.Close != nil:
		return "close"
	case m.Harvest != nil:
		return "harvest"
	case m.Harvested != nil:
		return "harvested"
	case m.Batch != nil:
		return "batch"
	case m.FlushReq != nil:
		return "flush"
	case m.Bye != nil:
		return "shutdown"
	case m.ConnStats != nil:
		return "stats"
	default:
		return "empty"
	}
}

// Codec frames Messages over a byte stream (NewFramedCodec is the
// constructor) in the binary wire of binary.go: every message kind has
// its own zero-reflection field-by-field encoding behind a kind byte.
// Each message is encoded into one
// retained buffer and written with a single Write — one syscall on a
// real socket — and the buffers are reused across messages, so
// steady-state sends allocate nothing. The staging also makes exact
// per-direction byte counters (SentBytes/RecvBytes) free.
//
// Send and Recv are each single-caller (the control loop's contract);
// the counters may be read from any goroutine.
type Codec struct {
	w    io.Writer
	fr   *frameReader
	sent atomic.Int64
	rcvd atomic.Int64
	// Message counters: one increment per frame, so coalesced frames
	// count once however many chunks they carry.
	sentMsgs atomic.Int64
	rcvdMsgs atomic.Int64

	// bin is the retained encode scratch; tup/bounds are the retained
	// decode storage that successive hot-path batches reuse (the
	// receive-side mirror of the engine's pooled feed buffers).
	bin    []byte
	tup    []tuple.Tuple
	bounds []int

	// Retained hot-path message envelopes: Recv returns pointers into
	// these for TupleBatch/Flush, valid until the next Recv — exactly
	// the aliasing contract BatchConn and the worker's data loop already
	// live by. The other messages are freshly allocated, except a
	// report's run (merged, below).
	hotMsg   Message
	hotBatch TupleBatch
	hotFlush Flush

	// merged are the two buffers reports decode their run into
	// alternately (see decodeReport).
	merged  [2][]stats.KeyStat
	mergedN int
}

// Send encodes one message and writes it as one frame.
func (c *Codec) Send(m *Message) error {
	b, err := appendMessage(c.bin[:0], m)
	if err != nil {
		return err
	}
	c.bin = b
	return c.SendFrame(b)
}

// Recv decodes the next message. Batch and FlushReq results alias
// codec-owned storage and are valid until the next Recv, and a report's
// Keys until the second following report; everything else is freshly
// allocated.
func (c *Codec) Recv() (*Message, error) { return c.recv(nil) }

// RecvBatches is Recv for the receiving end of a data connection: every
// TupleBatch goes to feed chunk by chunk, in send order, and the first
// message that is not one is returned. A chunk is fed as soon as it is
// decoded, out of a buffer the next chunk overwrites (feed must not keep
// the slice), so a frame that turns out malformed at a later chunk has
// already fed its earlier ones when the error comes back.
func (c *Codec) RecvBatches(feed func([]tuple.Tuple)) (*Message, error) {
	for {
		m, err := c.recv(feed)
		if err != nil || m.Batch == nil {
			return m, err
		}
	}
}

// recv decodes the next message; with a feed, a batch comes back
// already fed.
func (c *Codec) recv(feed func([]tuple.Tuple)) (*Message, error) {
	m, err := c.recvFrame(feed)
	if err == nil {
		c.rcvdMsgs.Add(1)
	}
	return m, err
}

// EnableBinary does nothing.
//
// Deprecated: every Codec speaks the binary wire from its first byte.
func (c *Codec) EnableBinary() {}

// SendFrame writes one pre-encoded frame (kind byte included), such as a
// batch built with AppendBatchHeader/AppendBatchChunk/PatchBatchHeader.
// It is the coalescing sender's path: the frame body is encoded outside
// any lock and only this write needs serializing.
func (c *Codec) SendFrame(p []byte) error {
	n, err := c.w.Write(p)
	c.sent.Add(int64(n))
	c.sentMsgs.Add(1)
	return err
}

// SentBytes returns the total bytes written to the stream so far.
func (c *Codec) SentBytes() int64 { return c.sent.Load() }

// RecvBytes returns the total bytes read from the stream so far.
func (c *Codec) RecvBytes() int64 { return c.rcvd.Load() }

// SentMsgs returns the number of frames written so far, each coalesced
// frame counting once.
func (c *Codec) SentMsgs() int64 { return c.sentMsgs.Load() }

// RecvMsgs returns the number of frames decoded so far.
func (c *Codec) RecvMsgs() int64 { return c.rcvdMsgs.Load() }

// AnnounceFromPlan marshals a planner result into its wire form: the
// routing table in ascending key order, the migration set in plan
// order (already sorted), and the reporting metadata.
func AnnounceFromPlan(plan *balance.Plan) *PlanAnnounce {
	ann := &PlanAnnounce{Algorithm: plan.Algorithm, GenTime: plan.GenTime}
	if plan.Table != nil {
		for _, k := range plan.Table.Keys() {
			d, _ := plan.Table.Lookup(k)
			ann.Table = append(ann.Table, RouteEntry{Key: k, Dest: d})
		}
	}
	for _, k := range plan.Moved {
		ann.Moved = append(ann.Moved, RouteEntry{Key: k, Dest: plan.MoveDest[k]})
	}
	return ann
}

// PlanFromAnnounce reconstructs the applicable part of a plan from its
// wire form: the routing table A′, the migration set with destinations,
// and the reporting metadata. Planner-side estimates (Loads, MaxTheta,
// OverloadTheta, MigrationCost) do not cross the wire — application needs
// none of them, and the stage side measures the migrated volume as it
// moves the keys.
func PlanFromAnnounce(a *PlanAnnounce) *balance.Plan {
	p := &balance.Plan{
		Algorithm: a.Algorithm,
		Table:     route.NewTable(),
		MoveDest:  make(map[tuple.Key]int, len(a.Moved)),
		GenTime:   a.GenTime,
	}
	for _, e := range a.Table {
		p.Table.Put(e.Key, e.Dest)
	}
	for _, mv := range a.Moved {
		p.Moved = append(p.Moved, mv.Key)
		p.MoveDest[mv.Key] = mv.Dest
	}
	return p
}
