package main

// metricDef names one reported metric. The end-to-end table and the
// per-layer table below are the single source of the names, units,
// directions and bounds; BENCHMARK.json at the repository root is
// generated from them (-describe) and a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. It is
	// set from measured spread: see README.md, "How the bounds were set".
	bound float64
	// exact metrics are computed from counts, not clocks, and must
	// repeat bit for bit for a fixed seed.
	exact bool
}

// End-to-end metrics: what a user of the engine sees. Every one is
// reported per workload, with tracing off.
var endToEnd = []metricDef{
	// Spout tuples fully processed through the last stage and the
	// interval's control round, per second of wall clock; median of the
	// repetitions.
	{name: "tuples_per_s", unit: "tuples/s", better: "higher", bound: 0.25},
	// p95 of per-interval wall time within a repetition; median of the
	// repetitions. p50 and p99 are printed beside it and not gated.
	{name: "interval_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	// Mean over timed intervals of the paper's θ = max_d |L(d)−L̄|/L̄ on
	// arrived load: a faster planner or router may not buy speed with
	// worse balance.
	{name: "imbalance_mean", unit: "ratio", better: "lower", bound: 0.15, exact: true},
	// Mean over all timed intervals of migrated state as a percentage of
	// live state (zero when no plan ran): the paper's migration cost.
	{name: "migrated_pct_mean", unit: "%", better: "lower", bound: 0.20, exact: true},
	// Input pre-generation + build + warm-up; median of the repetitions.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// Per-layer metrics, from the traced run. A layer is a module under
// internal/; a metric that does not exist on a workload (the wire on an
// in-process run, driver steps inside the coordinator) reads 0 there.
var perLayer = []metricDef{
	{name: "workload.draw_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "route.dest_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "route.table_entries", unit: "count", better: "lower"},
	{name: "engine.feed_ms", unit: "ms", better: "lower"},
	{name: "engine.feed_call_p50_us", unit: "us", better: "lower"},
	{name: "engine.feed_call_p99_us", unit: "us", better: "lower"},
	{name: "engine.close_ms", unit: "ms", better: "lower"},
	{name: "engine.harvest_ms", unit: "ms", better: "lower"},
	{name: "engine.model_ms", unit: "ms", better: "lower"},
	{name: "engine.split_keys_max", unit: "count", better: "higher"},
	{name: "stats.snapshot_keys", unit: "count", better: "lower"},
	{name: "stats.observe_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "ops.busy_ms", unit: "ms", better: "lower"},
	{name: "ops.busy_share", unit: "ratio", better: "higher"},
	{name: "control.round_ms", unit: "ms", better: "lower"},
	{name: "control.decide_ms", unit: "ms", better: "lower"},
	{name: "control.apply_ms", unit: "ms", better: "lower"},
	{name: "balance.plan_ms", unit: "ms", better: "lower"},
	{name: "balance.plans", unit: "count", better: "lower"},
	{name: "balance.moved_keys", unit: "count", better: "lower"},
	{name: "state.moved_units", unit: "count", better: "lower"},
	{name: "protocol.encode_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "protocol.decode_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "protocol.bytes_per_tuple", unit: "B/tuple", better: "lower"},
	{name: "cluster.bytes_per_tuple", unit: "B/tuple", better: "lower"},
	{name: "cluster.frames_per_interval", unit: "count", better: "lower"},
	{name: "cluster.wire_overhead_ns_per_tuple", unit: "ns/tuple", better: "lower"},
	{name: "cluster.drive_rest_ms", unit: "ms", better: "lower"},
	{name: "proc.cpu_s_per_mtuple", unit: "s/Mtuple", better: "lower"},
	{name: "proc.alloc_bytes_per_tuple", unit: "B/tuple", better: "lower"},
	{name: "proc.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "trace.interval_ms", unit: "ms", better: "lower"},
	{name: "trace.timeline_gap_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.driver_gap_pct", unit: "%", better: "lower"},
}
