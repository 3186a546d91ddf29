// Package repro reproduces "Parallel Stream Processing Against
// Workload Skewness and Variance" (Fang et al., HPDC 2017) as a
// self-contained Go library: the mixed hash/explicit-table routing
// scheme, the LLFD/MinTable/MinMig/Mixed rebalance planners, the
// compact 6-dimensional statistics representation with HLHE
// discretization, a goroutine-based stream-processing engine substrate
// with key migration at the interval barrier (Fig. 5's steps 3–7 on a
// sealed stage), the Readj and PKG baselines, and a harness regenerating
// every table and figure of the paper's evaluation.
//
// Entry points:
//
//   - internal/topology: the declarative builder, for one stage or
//     many (per-stage routing, planners, capacity) — see
//     Example_topology
//   - cmd/benchrunner: regenerate any exhibit (-exp fig13); the
//     seed-determined ones are pinned byte for byte by the goldens under
//     internal/experiments/testdata/golden
//   - bench/: the repository benchmark (bash bench/run.sh)
//   - bench_test.go: the same exhibits as testing.B benchmarks
//   - examples/: runnable demonstration topologies, all declared
//     through the builder
//
// # Topology builder
//
// Multi-stage systems are declared, not hand-wired:
//
//	sys := topology.New(topology.Spout(gen.Next), topology.Budget(20000)).
//		Stage("join", joins.Factory, topology.Instances(10), topology.Window(5),
//			topology.WithAlgorithm(topology.AlgMixed), topology.MinKeys(64)).
//		Stage("agg", aggs.Factory, topology.Instances(4), topology.Window(5)).
//		Build()
//
// Per-stage options select instances, window, algorithm or raw router
// (assignment, PKG, shuffle), planner/controller and service capacity.
// Every stage may carry its own controller — the engine fans each
// stage's harvest snapshot out to per-stage hooks
// (engine.AddSnapshotHook), so a two-stage topology can rebalance both
// stages independently. Stages stream to each other (see "Streaming
// interval pipeline" below).
//
// # Unified elastic control plane
//
// Per-stage control runs through one command path (internal/control):
// controllers and autoscalers are control.Policy implementations that
// consume interval snapshots and emit typed commands — Rebalance,
// ScaleOut, ScaleIn, SetSplit — applied by a single per-stage Executor.
// A round crosses the transport as two protocol messages: the
// executor's LoadReport and one Commands reply listing the round's
// PlanAnnounce, Resize and SplitAnnounce entries in order (empty when
// the round holds). Keys migrate inside the stage's host. In process the
// round is a direct call into control.Answer on the driver's
// goroutine; across processes it rides the worker's session, the
// cluster's framed codec over a socket (internal/cluster), answered by
// the same function on the coordinator, and the tests pin the two
// equivalent by running the rounds over a framed pipe.
// ScaleIn is a real actuator (engine.Stage.ScaleIn — drain the
// retiring task, shrink the hash ring, migrate its keys' windowed
// state and statistics to the survivors live), the mirror of ScaleOut;
// engine.ResizeStage(si, ±1) resizes any stage, not just the
// target.
// Attach extra policies per stage with topology.WithPolicy (the §VII
// composition: a Mixed rebalancer for short-term fluctuations plus
// longterm.AutoScaler answering sustained shifts elastically).
//
// # Parallel runtime
//
// The spout draws and feeds stage 0 serially, on the driver's
// goroutine (engine.Emitter). Every stage's tasks run on their own
// goroutines, and each task sends into the next stage concurrently
// through its own engine.Port, as does each inbound data connection of
// a cluster worker (a PKG sender routes on its own load estimate, and a
// shuffle stage's totals stay exact while which tuple lands where
// follows the interleaving).
// Statistics harvest runs on all task goroutines concurrently, queued
// behind each task's close, each producing a sorted run that the driver
// combines with a k-way merge (stats.MergeRuns) into the planner
// snapshot, in one of two buffers the stage alternates between: a
// snapshot's keys are valid until the close after next. The control
// round hands that run on as its report, unsplit and uncopied, and the
// planners read it in place (README, "Control round").
//
// # Streaming interval pipeline
//
// Stages stream to each other: each upstream task flushes its emitted
// tuples into its own Port on the downstream stage in emitChunk-sized
// batches from its own goroutine, so stage s+1 consumes and processes
// while stage s is still working, and the interval ends with a
// cascading close (barrier stage s, flush residual emission buffers
// downstream, close stage s+1). Backpressure scans every stage's
// backlog. A store-and-forward reference lives in the tests, which pin
// the interval series, snapshots and routing tables equal.
//
// # Batched data plane
//
// The tuple hot path is batch-oriented end to end, so the per-tuple
// overheads the paper's experiments would otherwise drown in are
// amortized across hundreds of tuples:
//
//   - the engine draws tuples through a batch spout (engine.SpoutBatch:
//     the Zipf stream's NextBatch, or engine.BatchSpout over another
//     generator's Next) into a reusable scratch buffer;
//   - engine.Port.FeedBatch (each sender holds its own Port;
//     Stage.FeedBatch is the stage's own) partitions a whole batch
//     into per-destination slices against one atomic load of the
//     routing assignment — or the sender's own PKG estimate, or one
//     atomic claim of shuffle positions; no lock — and sends each task
//     at most one channel message per batch, carved from a
//     refcount-recycled buffer;
//   - route.Assignment.DestTuples resolves destinations in
//     one pass, each key probing the frozen routing table and going to
//     the ring only on a miss, with the empty-table test and interface
//     dispatch hoisted out of the per-tuple loop; with hot keys split,
//     the same probe marks a split key's tuples for fan-out;
//   - hashring.Ring precomputes a dense power-of-two lookup table at
//     construction, making the consistent-hash lookup an O(1) masked
//     array index plus, in the buckets that hold ring points, a scan
//     of one or two of them (bit-identical to the exact ring search);
//   - a task's state.Store and stats.Tracker are two faces of one key
//     directory (state.Dir): ObserveBatch finds each key's record where
//     the operator's Add left it, and a new key allocates nothing but
//     its entry run. Only a stage with a snapshot hook observes: the
//     task loop of any other stage skips ObserveBatch;
//   - a tuple.Tuple is 48 bytes (key, cost, state size, value, seq)
//     for the feed path's scatter copy, Emit's append and the decoder's
//     rows, and the batch encoder writes the engine's own chunks in one
//     pass.
//
// Batching changes cost, not semantics: routing decisions, interval
// boundaries and the migration protocol are exactly those of the
// per-tuple path (equivalence is pinned by tests; exhibit outputs are
// bit-identical).
//
// # Migration at the interval barrier
//
// Every actuation — a rebalance plan (engine.Stage.ApplyPlan), a split
// set, a resize — runs between intervals, as the paper's Fig. 5 control
// point does: StartInterval opens a stage, CloseInterval seals it, and
// an actuation on an open stage returns an error without touching
// anything. On the sealed stage a plan extracts windowed state and
// tracker history at the sources and injects it at the destinations —
// one barrier per task and phase, all tasks concurrently — then swaps
// the new assignment in for the next interval's feeders. A stage
// migrates iff it routes by assignment; there is no option.
//
// # Hot-key splitting
//
// Migration moves whole keys, so a single viral key still caps at one
// task's speed. topology.HotKeySplit(maxKeys, threshold) arms a
// per-stage contention detector (stats.HotKeyDetector: bounded top-k
// heap over the tracker, entry at threshold × per-task capacity,
// hysteresis exit) whose split set travels as a SplitAnnounce protocol
// message. A split key's tuples fan round-robin across a replica set,
// each charged on arrival to the replica that runs it, so the queueing
// model, Skewness and MaxTheta measure what each task processed.
// Replicas absorb commutative deltas through the engine.SplitFolder
// contract (SplitAbsorb on the replica, SplitMerge at the home) and
// every cell folds back into the key's home task at interval close —
// before snapshots or downstream flushes — so snapshots, routing
// tables, per-instance state and final aggregates are pinned
// bit-identical to the unsplit run. The load report carries the split
// set with fans, and the rebalance controller plans around it: the
// planner sees every other key over each instance's pinned share of
// the split keys (cost/fan on each replica), the trigger reads the same
// loads, and while one instance's pinned share alone is past Lmax no
// key-granular plan can meet θmax, so the controller holds (HeldSplit).
// Split keys keep their routing entries; the controller's guardSplit
// is a check whose SplitPinned counter stays 0, and the stage's
// backstop pins a raw caller's entry back to the home. Transitions run
// at the interval barrier like every actuation, and fold every cell
// home before the replica sets change.
// examples/viralkey demonstrates a flash crowd; the repository
// benchmark's hotkey workload measures it.
//
// See README.md for the architecture tour; per-exhibit interpretation
// against the published shapes lives with the runners in
// internal/experiments.
package repro
