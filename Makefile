# Tier-1 verification and benchmarks for the repro module.

GO ?= go

.PHONY: verify build test vet loc bench bench-check bench-e2e bench-control bench-wire bench-engine bench-workload exhibits smoke-examples smoke-cluster

## verify: the tier-1 gate — vet, build, test everything — plus a vet of
## the nested bench/ module, which tier-1 never compiles: an internal/
## signature change must not break it silently. The cluster binaries must
## not link encoding/gob: the wire has one encoding.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./...
	@deps=$$($(GO) list -deps ./cmd/worker ./cmd/coordinator) || exit 1; \
	if echo "$$deps" | grep -qx encoding/gob; then echo "encoding/gob is linked into cmd/worker or cmd/coordinator"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## loc: the size ROADMAP tracks — non-test Go lines, with and without
## the nested bench/ module.
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | xargs echo "non-test Go lines:"
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l | xargs echo "non-test Go lines outside bench/:"

## bench: data-plane and planner micro-benchmarks.
bench:
	$(GO) test -bench . -benchmem -run XXX ./internal/...

## bench-check: vet and test the repository benchmark (the nested
## bench/ module; `verify` only vets it), then run it at smoke size with
## exact per-key output checks.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke

## bench-e2e: the repository benchmark as BENCHMARK.json declares it —
## all four workloads, end-to-end metrics. For a perf claim add
## `--workload W --trace 1` (per-layer metrics) and compare against the
## parent commit in alternating pairs (bench/README.md).
bench-e2e:
	bash bench/run.sh

## bench-control: the control path's micro-benchmarks. ControlRound is
## one commanded round at the repository benchmark's variance shape
## (~11 000 keys re-drawn per round over 8 instances, a Mixed plan every
## round) from the trackers' sorted runs to the applied plan, over the
## loopback and over a framed pipe (the codec a cluster control
## connection speaks): ns/op, allocations, and ns per harvested key split
## into merge / plan / report. EngineInterval is a whole interval with
## the controller on the stage directly, behind the loopback loop, and
## behind the framed pipe. WireCodec isolates the report frame's
## per-message cost (the retained buffers keep allocs/msg flat as report
## populations grow).
bench-control:
	$(GO) test -run '^$$' -bench 'ControlRound|EngineInterval|WireCodec' -benchmem -benchtime 1s ./internal/control/

## bench-wire: the receive path's micro-benchmarks. TupleBatchCodec is
## one 256-tuple batch through Send and Recv per chunk shape (engine;
## fallback, the engine chunk with its last tuple breaking a hoist, so
## the encoder's one pass is wasted and the chunk written again; app,
## scalar, composite; every row but composite must report 0 allocs/op
## in both directions); DestTuples is the
## feeder's routing kernel on warm 1 024-tuple Zipf chunks with an empty
## routing table, a 32-entry one, a split set beside it, and the hotkey
## shape (one key at 40 % split beside 80 entries) (ns/tuple);
## ClusterWire is whole intervals of a 2-stage topology on two workers
## over a unix socket. BENCHTIME=1x (CI) only checks that they still
## build, run and allocate nothing.
BENCHTIME ?= 1s
bench-wire:
	$(GO) test -run '^$$' -bench 'TupleBatchCodec' -benchmem -benchtime $(BENCHTIME) ./internal/protocol/
	$(GO) test -run '^$$' -bench 'DestTuples' -benchmem -benchtime $(BENCHTIME) ./internal/route/
	$(GO) test -run '^$$' -bench 'ClusterWire' -benchmem -benchtime $(BENCHTIME) ./internal/cluster/

## bench-engine: the engine's interval micro-benchmarks. FeedBatch feeds
## 1 024-tuple batches into an assignment-routed and a PKG stage (the
## sender's own load estimate); FeedBatchSplit is FeedBatch at the
## hotkey workload's shape (8 tasks, an 80-entry
## table, one key at 40 % split 4 ways); MigratePlan applies a 12-key
## plan over 8 idle tasks, MigrateKey a one-key plan over 2;
## TaskInterval is whole intervals of the tasks' store and tracker work
## at pipe-local's shape (4 tasks) and variance's (8), 128-tuple slices
## round-robin across the tasks so their working sets compete for the
## caches, reporting add, observe and close ns per tuple. BENCHTIME=1x
## (CI) only checks that they still build and run.
bench-engine:
	$(GO) test -run '^$$' -bench 'FeedBatch|Migrate|TaskInterval' -benchmem -benchtime $(BENCHTIME) ./internal/engine/

## bench-workload: the workload generators' micro-benchmarks.
## ZipfNextBatch draws one interval and then crosses its boundary
## (Advance) at the repository benchmark's three generator shapes:
## pipe (pipe-local and pipe-cluster: K 1 000, z 0.85, 40 000 tuples),
## variance (K 100 000, f 1, 20 000 tuples, re-ranked every interval)
## and hotkey (K 10 000, z 1.5, 10 000 tuples), in ns/tuple, each row at
## 0 allocs/op. ZipfAdvance is one re-rank at K 100 000 (0 allocs/op)
## and ExpectedCounts the per-rank expected counts the stream memoizes
## for it. BENCHTIME=1x (CI) only checks that they still build and run.
bench-workload:
	$(GO) test -run '^$$' -bench 'ZipfNextBatch|ZipfAdvance|ExpectedCounts' -benchmem -benchtime $(BENCHTIME) ./internal/workload/

## exhibits: regenerate every paper exhibit.
exhibits:
	$(GO) run ./cmd/benchrunner

## smoke-examples: run every example topology end to end with a
## 2-interval budget (compiling ./examples/... is not enough — the
## builder wiring must actually execute).
smoke-examples:
	@for d in examples/*/; do \
		echo "== $$d =="; \
		REPRO_INTERVALS=2 $(GO) run ./$$d || exit 1; \
	done

## smoke-cluster: the distributed runtime as real OS processes — build
## cmd/worker and cmd/coordinator, then run a 2-worker socialpipe
## cluster over a unix socket for two intervals (the coordinator execs
## the workers and prints the per-connection byte table at shutdown).
smoke-cluster:
	$(GO) build -o bin/worker ./cmd/worker
	$(GO) build -o bin/coordinator ./cmd/coordinator
	REPRO_INTERVALS=2 bin/coordinator -workers 2 -network unix -topology socialpipe -worker-bin bin/worker
