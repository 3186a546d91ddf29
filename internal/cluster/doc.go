// Package cluster is the distributed runtime: it hosts the engine's
// pipeline stages in separate OS processes connected by real sockets,
// speaking the same protocol messages the in-process control loops are
// pinned on — the final link of the local ≡ pipe ≡ socket chain.
//
// A deployment is one coordinator process and N worker processes
// (cmd/coordinator, cmd/worker). The coordinator owns the topology
// declaration (a Spec), the spout, the per-stage rebalance policies and
// the interval clock; workers own the stages — task goroutines, state
// stores, routers — and the elastic actuators. Stage placement is
// deliberately simple and deterministic: stage si lives on worker
// si mod N, in pipeline order, so any worker count between 1 and the
// stage count yields a valid cluster and the placement needs no
// negotiation protocol.
//
// Two connection kinds tie the processes together, both built on the
// length-framed protocol.NewFramedCodec over TCP or unix sockets and
// opening with a Hello/Welcome handshake that checks the protocol
// version (Proto). Every connection speaks the hand-rolled binary codec
// from its first byte — a zero-reflection frame kind for every message,
// the handshake's included, and the only encoding on the wire — with
// FeedBatch frame coalescing up to DefCoalesce bytes on data edges:
//
//   - the worker session (one per worker, dialed at startup): stage
//     assignments, interval StartInterval/CloseStage/HarvestReq drive
//     (a HarvestDone answers with the stage's finished metrics row and
//     backlog), shutdown and the final byte-count Stats. A stage with
//     coordinator-side policies runs its control round on the session,
//     between its HarvestReq and HarvestDone: the stage's
//     control.Executor sends one LoadReport, and the coordinator
//     validates it and answers with control.Answer's one Commands —
//     exactly the Fig. 5 round the single-process loops run, serialized
//     over the socket. Migrated state stays on the worker hosting the
//     stage, so no state crosses the session; a stage in state-wire
//     mode still round-trips each moved key through state.Codec, and a
//     value outside the wire's value tags ends the worker's session;
//   - data connections (spout → stage 0, stage si → stage si+1 across
//     process boundaries): TupleBatch streams into the remote stage's
//     FeedBatch, with Flush echoes as delivery barriers.
//
// The distributed run is pinned bit-identical to the single-process
// engine (Spec.BuildLocal): same interval series, same harvest
// snapshots, same routing tables — with live rebalances, scale-out,
// scale-in and hot-key splits applied mid-run over the sockets, and
// zero tuple loss. The equivalence holds because every decision point
// reuses the exact single-process code: each worker ends its stage's
// interval with engine.Engine.EndStage — the harvest, control round,
// resizes and queueing model a single-process engine runs — and the
// coordinator throttles with engine.ThrottleBudget over the backlogs the
// workers ship; the emission plane is the same engine.Emitter (so chunk
// boundaries, and hence shuffle routing, are preserved), and every
// FeedBatch call's chunk boundary survives the wire as a length-prefixed
// sub-batch inside a coalesced frame, so the receiver replays the exact
// same FeedBatch sequence. The declaration is the topology builder's
// own (Spec is topology.Spec): the coordinator resolves it and
// assembles each stage's policies, and each worker builds its stage,
// with the same functions BuildLocal calls, so every builder option —
// PKG's capacity shave and latency floor, HotKeySplit, an explicit
// StageSpec.Planner —
// runs over the wire.
package cluster
