# Tier-1 verification and benchmarks for the repro module.

GO ?= go
# Spout parallelism for bench-dataplane (the scaling-curve knob).
FEEDERS ?= 1
# Zipf skews for the hot-key splitting sweep (split on vs off each).
THETAS ?= 0.99,1.2,1.5

.PHONY: verify build test vet bench bench-check bench-e2e bench-dataplane bench-multistage bench-cluster bench-control bench-harvest bench-hotkey exhibits smoke-examples smoke-cluster

## verify: the tier-1 gate — vet, build, test everything.
verify:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## bench: data-plane and planner micro-benchmarks.
bench:
	$(GO) test -bench . -benchmem -run XXX ./internal/...

## bench-check: compile, vet and test the repository benchmark (the
## nested bench/ module, which `verify` does not see — an internal/
## signature it calls can otherwise break it silently), then run it at
## smoke size with exact per-key output checks.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke

## bench-e2e: the repository benchmark as BENCHMARK.json declares it —
## all four workloads, end-to-end metrics. For a perf claim add
## `--workload W --trace 1` (per-layer metrics) and compare against the
## parent commit in alternating pairs (bench/README.md).
bench-e2e:
	bash bench/run.sh

## bench-dataplane: write BENCH_dataplane.json (tuples/sec trajectory),
## printing old-vs-new when the file already exists. FEEDERS=N fans the
## engine measurements out to N spout goroutines; THETAS drives the
## hot-key splitting sweep (each skew measured split-off and split-on).
bench-dataplane:
	$(GO) run ./cmd/benchrunner -dataplane BENCH_dataplane.json -feeders $(FEEDERS) -theta $(THETAS)

## bench-multistage: the dataplane report plus the 2-stage end-to-end
## benchmark (store-and-forward vs streaming pipeline transfer).
bench-multistage:
	$(GO) run ./cmd/benchrunner -dataplane BENCH_dataplane.json -feeders $(FEEDERS) -multistage

## bench-cluster: the dataplane report plus the distributed-runtime
## sweep — the multistage 2-stage shape hosted on two cluster workers,
## every hop over a real socket. Per transport (tcp, unix) the sweep
## measures the gob oracle and the binary wire at each coalescing
## budget (off / 4KB / 32KB), recording tuples/sec, bytes/tuple and
## allocs/msg per point (cluster_sweep in the report; the binary/32KB
## default also lands under cluster_interval_{tcp,unix}). Read against
## multistage_interval: the remaining delta is serialization plus the
## kernel's socket path.
bench-cluster:
	$(GO) run ./cmd/benchrunner -dataplane BENCH_dataplane.json -feeders $(FEEDERS) -multistage -cluster

## bench-control: the control path's micro-benchmarks. ControlRound is
## one commanded round at the repository benchmark's variance shape
## (~11 000 keys re-drawn per round over 8 instances, a Mixed plan every
## round) from the trackers' sorted runs to the applied plan, over the
## loopback and the gob pipe: ns/op, allocations, and ns per harvested
## key split into merge / plan / report. EngineInterval is a whole
## interval direct-vs-loop-vs-wire. RebalanceLatency is the
## migration-mode comparison: p50/p99 feed latency with and without a
## concurrent plan, pausing vs pause-free — the pause-free protocol's
## p99 must stay flat across a rebalance. WireCodec isolates the gob
## codec's per-message cost (the retained staging buffer keeps
## allocs/msg flat as report populations grow).
bench-control:
	$(GO) test -run '^$$' -bench 'ControlRound|EngineInterval|RebalanceLatency|WireCodec' -benchmem -benchtime 1s ./internal/control/

## bench-harvest: the tracked-key population sweep — each -keys value
## measured through interval close + one wire control round with a 1k
## working set, full harvest vs incremental, written into
## BENCH_dataplane.json's harvest_sweep section. The delta column's
## "vs full" ratios are the O(keys) → O(Δkeys) control-cost claim.
bench-harvest:
	$(GO) run ./cmd/benchrunner -dataplane BENCH_dataplane.json -feeders $(FEEDERS) -theta $(THETAS) -keys 4096,16384,65536

## bench-hotkey: just the hot-key splitting θ-sweep (split on vs off at
## each skew, tuples/sec + worst-interval feed p50/p99 + max split
## keys), written into BENCH_dataplane.json's hotkey_sweep section.
bench-hotkey:
	$(GO) run ./cmd/benchrunner -dataplane BENCH_dataplane.json -feeders $(FEEDERS) -theta $(THETAS)

## exhibits: regenerate every paper exhibit. PIPELINE=1 runs them with
## streaming inter-stage transfer (key-partitioned exhibit outputs do
## not change; fig01's shuffle stages may interleave on multicore).
exhibits:
	$(GO) run ./cmd/benchrunner $(if $(PIPELINE),-pipeline)

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
