// Package control is the unified elastic control plane: one command
// path for rebalance, scale-out and live scale-in, spoken over
// protocol messages.
//
// It owns the per-stage control loop the paper's Fig. 5 workflow
// describes and §VII's future work calls for (one mechanism covering
// both short-term fluctuations and long-term shifts, cf. DRS):
//
//	         stage side (Executor)            controller side (Loop server)
//	  ┌──────────────────────────┐  LoadReport ┌──────────────────────────┐
//	1 │ the interval's snapshot, │────────────▶│ check → the snapshot     │
//	  │ whole, as the report     │   (×1)      │ Policy.Decide → Commands │ 2
//	  │                          │ PlanAnnounce│                          │
//	4 │ migrate per key, sealed  │◀────────────│ Rebalance{Plan}          │ 3
//	  │  └▶ StateTransfer (×Δ)   │────────────▶│   or ScaleOut / ScaleIn  │
//	5 │ Ack when applied         │────────────▶│   as Resize{±1}          │
//	  │                          │   Resume    │                          │
//	7 │ resume normal processing │◀────────────│ round closed             │ 6
//	  └──────────────────────────┘             └──────────────────────────┘
//
// Policies (rebalance controllers, autoscalers) are pure deciders:
// they consume one interval's snapshot plus the stage context Env and
// emit typed Commands. A single per-stage Executor applies every
// command against the engine, on the stage sealed by the interval's
// close — Rebalance through the stage's key migration
// (Stage.ApplyPlan), ScaleOut/ScaleIn through the engine's generalized
// ResizeStage — and every step of every command crosses a
// Conn as a protocol message. In process the Conn is a loopback
// (channel-passed messages); a multi-process deployment only swaps it
// for cluster.Conn, the framed codec over a socket, and the tests pin
// the two equivalent by running a round over a framed pipe.
//
// Step 1 is one LoadReport whose run is the snapshot's own (the
// loopback passes the pointer; a wire adds a destination column and
// decodes into a buffer the codec recycles). The server validates it as
// outside input — destinations inside the stage, canonical order —
// before any policy sees it; a report that fails, like any other break
// of the protocol, makes the server hang up, so the executor's round
// returns as a hold instead of wedging the driver. The snapshot a policy
// is handed lives until the round after next; one that keeps it longer
// clones it.
package control

import (
	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Command is one typed instruction a Policy emits for its stage's
// Executor: exactly Rebalance, ScaleOut or ScaleIn.
type Command interface{ isCommand() }

// Rebalance applies a migration plan (new routing table A′ plus the
// migration set Δ(F, F′)) through the stage's key migration.
type Rebalance struct{ Plan *balance.Plan }

// ScaleOut adds one task instance to the stage (the hash ring grows;
// only keys on the new instance's arcs migrate).
type ScaleOut struct{}

// ScaleIn retires the stage's last task instance: the ring
// shrinks, the retiring task drains, and its keys' windowed state and
// statistics migrate to the surviving instances.
type ScaleIn struct{}

// SplitSpec is one hot key's split directive: replicate its tuples
// across Fan task instances until folded back.
type SplitSpec struct {
	Key tuple.Key
	Fan int
}

// SetSplit publishes the complete hot-key split set for the stage:
// keys present become (or stay) split at the given fan, keys absent
// fold back into their home task. Emitted by the contention detector
// (controller.Splitter); the executor applies it through the stage's
// arm/publish/fold machinery.
type SetSplit struct{ Set []SplitSpec }

func (Rebalance) isCommand() {}
func (ScaleOut) isCommand()  {}
func (ScaleIn) isCommand()   {}
func (SetSplit) isCommand()  {}

// Env is the stage context a Policy decides under — everything beyond
// the snapshot itself, reconstructed on the controller side purely
// from the round's load reports, so a decider needs no reference into
// the engine and can run across a process boundary.
type Env struct {
	// Interval is the just-finished interval's index.
	Interval int64
	// Tasks is the stage's instance count ND at reporting time.
	Tasks int
	// Capacity is the per-task service capacity in cost units per
	// interval.
	Capacity int64
	// Emitted is the spout's post-throttle emission this interval;
	// comparing it with Budget reveals backpressure-suppressed demand.
	Emitted int64
	// Budget is the spout's configured per-interval tuple budget.
	Budget int64
	// Routable reports whether the stage routes by assignment (hash +
	// table): only routable stages can rebalance.
	Routable bool
	// Resizable reports whether the stage's instance set can change:
	// assignment routing over a consistent-hash ring. Policies must
	// gate ScaleOut/ScaleIn on it, so "applied" histories never count
	// a command the executor would have to reject.
	Resizable bool
	// Split is the stage's current split set with fans (ascending key
	// order, nil when none). The rebalance controller plans around it:
	// a split key is never a move candidate, its cost is spread over the
	// replicas it runs on, and its routing-table entry is kept.
	Split []SplitSpec
}

// Policy consumes one interval's merged statistics snapshot plus the
// stage context and returns the commands to apply, in order. A nil or
// empty return means hold. Implementations keep their own trigger
// state (EWMA, patience, pending plans) across calls; Decide is called
// once per interval per stage, always from the same goroutine.
type Policy interface {
	Decide(env Env, snap *stats.Snapshot) []Command
}
