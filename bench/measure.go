package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// sizes is how much one invocation runs.
type sizes struct {
	warm   int
	n      int  // timed intervals per repetition
	reps   int  // end-to-end repetitions
	rounds int  // traced rounds (each several repetitions, see traceRun)
	smoke  bool // also compare exact per-key counts; skip the process warm-up
}

// defaultReps is R: an end-to-end number is the median of this many
// repetitions, each on its own input drawn from the seed.
const (
	defaultReps   = 8
	defaultRounds = 3
)

// sizesFor turns --seconds into fixed work for one workload: the timed
// intervals of all repetitions together take about that long on the
// host the benchmark was sized on.
func sizesFor(w *workloadDef, seconds float64) sizes {
	n := int(math.Round(w.intervalsPerSec * seconds / defaultReps))
	if n < 10 {
		n = 10
	}
	return sizes{warm: warmIntervals, n: n, reps: defaultReps, rounds: defaultRounds}
}

var smokeSizes = sizes{warm: 3, n: 10, reps: 1, rounds: 1, smoke: true}

// subSeed derives repetition i's input seed from the run's seed, so the
// repetitions of one run see different inputs and a run's medians are
// less an accident of one draw.
func subSeed(seed int64, i int) int64 { return seed*7919 + int64(i) }

// result is one workload's outcome: the metric values by name, and for
// the report the per-repetition samples behind each end-to-end value.
type result struct {
	workload  *workloadDef
	values    map[string]float64
	samples   map[string][]float64
	attempted int64
	failed    int64
	problems  []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) absorb(p *rep) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, s := range p.problems {
		r.problems = append(r.problems, fmt.Sprintf("seed %d: %s", p.spec.seed, s))
	}
}

// warmProcess runs one short untimed repetition: the process's heap, its
// pooled buffers and the page cache are cold only once, and that once
// should not land on a measured repetition. A smoke run skips it.
func warmProcess(w *workloadDef, seed int64, sz sizes) error {
	if sz.smoke {
		return nil
	}
	_, err := w.runRep(repSpec{seed: subSeed(seed, 0), warm: smokeSizes.warm, n: smokeSizes.n, kind: driveEngine})
	return err
}

// endToEndRun measures the end-to-end metrics: reps repetitions through
// the shipped driver with tracing off.
func endToEndRun(w *workloadDef, seed int64, sz sizes, out io.Writer) (*result, error) {
	res := &result{workload: w, values: map[string]float64{}, samples: map[string][]float64{}}
	fmt.Fprintf(out, "\n%s: %d repetitions × %d intervals × %d tuples (closed loop, 1 driver)\n", w.name, sz.reps, sz.n, w.budget)
	fmt.Fprintf(out, "  %-4s %12s %9s %9s %9s %10s %12s %8s %8s\n", "rep", "tuples/s", "p50 ms", "p95 ms", "p99 ms", "θ mean", "migrated %", "plans %", "setup s")
	if err := warmProcess(w, seed, sz); err != nil {
		return nil, err
	}
	for i := 0; i < sz.reps; i++ {
		p, err := w.runRep(repSpec{seed: subSeed(seed, i), warm: sz.warm, n: sz.n, kind: driveEngine, exact: sz.smoke})
		if err != nil {
			return nil, err
		}
		res.absorb(p)
		asc := sorted(p.interval)
		var theta, mig, plans float64
		for _, row := range p.rows {
			theta += row.MaxTheta
			mig += row.MigrationPct
			if row.Rebalanced {
				plans++
			}
		}
		theta /= float64(len(p.rows))
		mig /= float64(len(p.rows))
		plans *= 100 / float64(len(p.rows))
		add := func(name string, v float64) { res.samples[name] = append(res.samples[name], v) }
		add("tuples_per_s", p.tuplesPerSec())
		add("interval_p50_ms", percentile(asc, 0.50))
		add("interval_p95_ms", percentile(asc, 0.95))
		add("interval_p99_ms", percentile(asc, 0.99))
		add("imbalance_mean", theta)
		add("migrated_pct_mean", mig)
		add("setup_s", p.setup.Seconds())
		fmt.Fprintf(out, "  %-4d %12.0f %9.3f %9.3f %9.3f %10.6f %12.6f %8.1f %8.3f\n", i,
			p.tuplesPerSec(), percentile(asc, 0.50), percentile(asc, 0.95), percentile(asc, 0.99), theta, mig, plans, p.setup.Seconds())
	}
	for _, m := range endToEnd {
		if m.exact {
			// A count-like metric has no timing noise to take a median
			// over: the mean over the repetitions uses all of them.
			res.values[m.name] = mean(res.samples[m.name])
		} else {
			res.values[m.name] = median(res.samples[m.name])
		}
	}
	fmt.Fprintf(out, "  interval time, median of repetitions: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms (%d intervals each; p99 is not gated)\n",
		median(res.samples["interval_p50_ms"]), median(res.samples["interval_p95_ms"]), median(res.samples["interval_p99_ms"]), sz.n)
	return res, nil
}

// traceRun produces the per-layer metrics. Each round runs the same
// input three ways: through the shipped driver untraced (the baseline
// for the overhead figures, and the source of the proc.* counters),
// through the spanned copy of the interval sequence with spanned
// policies and timed operators, and a third time that isolates one
// difference — for an in-process workload the copy without spans
// (trace.driver_gap_pct), for the cluster the same spec in process
// (cluster.wire_overhead_ns_per_tuple).
func traceRun(w *workloadDef, seed int64, sz sizes, spanTo string, out io.Writer) (*result, error) {
	res := &result{workload: w, values: map[string]float64{}}
	third, thirdKind := w, driveBare
	if w.clustered {
		third, thirdKind = workloadNamed("pipe-local"), driveEngine
	}
	if err := warmProcess(w, seed, sz); err != nil {
		return nil, err
	}
	var base, traced, extra []*rep
	for i := 0; i < sz.rounds; i++ {
		rs := repSpec{seed: subSeed(seed, i), warm: sz.warm, n: sz.n, exact: sz.smoke}
		for _, leg := range []struct {
			w    *workloadDef
			kind driverKind
			into *[]*rep
		}{{w, driveEngine, &base}, {w, driveTraced, &traced}, {third, thirdKind, &extra}} {
			rs.kind, rs.spanTo = leg.kind, ""
			if leg.kind == driveTraced {
				rs.spanTo = spanTo
			}
			p, err := leg.w.runRep(rs)
			if err != nil {
				return nil, err
			}
			res.absorb(p)
			*leg.into = append(*leg.into, p)
		}
		// The spanned copy and the shipped driver saw the same input, so
		// they must have recorded the same series: if not, the copy (or
		// the traced policy construction) has drifted from the engine.
		if diff := diffSeries(base[i], traced[i]); diff != "" {
			res.problems = append(res.problems, "traced run diverged from the shipped driver: "+diff)
		}
		if diff := diffSeries(base[i], extra[i]); diff != "" {
			res.problems = append(res.problems, "third leg diverged from the shipped driver: "+diff)
		}
	}
	if err := layerMetrics(w, res.values, base, traced, extra); err != nil {
		return nil, err
	}
	printTimeline(out, w, res.values, traced)
	return res, nil
}

// diffSeries compares what two repetitions recorded for the same input:
// θ, migration %, routing-table size, emission and which intervals
// rebalanced must agree exactly (plan time is a clock and is skipped).
func diffSeries(a, b *rep) string {
	if len(a.allRows) != len(b.allRows) {
		return fmt.Sprintf("%d intervals vs %d", len(a.allRows), len(b.allRows))
	}
	for i := range a.allRows {
		x, y := a.allRows[i], b.allRows[i]
		if x.MaxTheta != y.MaxTheta || x.MigrationPct != y.MigrationPct || x.TableSize != y.TableSize ||
			x.Emitted != y.Emitted || x.Rebalanced != y.Rebalanced {
			return fmt.Sprintf("interval %d: θ %v vs %v, migrated %v%% vs %v%%, table %d vs %d, emitted %d vs %d",
				i, x.MaxTheta, y.MaxTheta, x.MigrationPct, y.MigrationPct, x.TableSize, y.TableSize, x.Emitted, y.Emitted)
		}
	}
	return ""
}

// layerMetrics fills values with every per-layer metric. Times are per
// timed interval, averaged over the traced repetitions.
func layerMetrics(w *workloadDef, values map[string]float64, base, traced, extra []*rep) error {
	for _, m := range perLayer {
		values[m.name] = 0
	}
	var intervals, tuples float64
	var cpu, opBusy time.Duration
	var spans []span
	counts := map[string]int64{}
	for _, p := range traced {
		intervals += float64(len(p.rows))
		tuples += float64(p.tuples())
		cpu += p.proc.cpu
		spans = append(spans, shifted(p.spans, len(spans))...)
		for k, v := range p.counts {
			counts[k] += v
		}
		for _, busy := range p.opBusy {
			opBusy += busy
		}
	}
	sum := summarize(spans)
	perIntervalMs := func(name string) float64 { return sum[name].total.Seconds() * 1e3 / intervals }

	values["trace.interval_ms"] = perIntervalMs(spanInterval)
	values["workload.draw_ns_per_tuple"] = float64(sum[spanDraw].total) / tuples
	values["control.decide_ms"] = perIntervalMs(spanDecide)
	values["balance.plan_ms"] = perIntervalMs(spanPlan)
	values["balance.plans"] = float64(counts["balance.plans"])
	values["balance.moved_keys"] = float64(counts["balance.moved_keys"])
	values["stats.snapshot_keys"] = float64(counts["stats.snapshot_keys"]) / intervals
	values["ops.busy_ms"] = opBusy.Seconds() * 1e3 / intervals
	values["ops.busy_share"] = opBusy.Seconds() / cpu.Seconds()

	var feedUs []float64
	if w.clustered {
		// The coordinator's emitter alternates draw and FeedBatch on one
		// goroutine, so the gap between two draws of an interval is the
		// FeedBatch call between them. What follows the last draw — its
		// feed, the flush barrier, the close cascade, harvest and control
		// round on the workers — cannot be told apart from outside.
		feedUs = drawGaps(spans)
		var feed float64
		for _, us := range feedUs {
			feed += us
		}
		values["engine.feed_ms"] = feed / 1e3 / intervals
		values["cluster.drive_rest_ms"] = values["trace.interval_ms"] - perIntervalMs(spanDraw) - values["engine.feed_ms"]
	} else {
		feedUs = durations(spans, spanFeed)
		values["engine.feed_ms"] = perIntervalMs(spanFeed)
		values["engine.close_ms"] = perIntervalMs(spanClose)
		values["engine.harvest_ms"] = perIntervalMs(spanHarvest)
		values["engine.model_ms"] = perIntervalMs(spanModel)
		values["control.round_ms"] = perIntervalMs(spanRound)
		values["control.apply_ms"] = values["control.round_ms"] - values["control.decide_ms"]
		values["state.moved_units"] = float64(counts["state.moved_units"])
		steps := perIntervalMs(spanDraw) + values["engine.feed_ms"] + values["engine.close_ms"] +
			values["engine.harvest_ms"] + values["control.round_ms"] + values["engine.model_ms"]
		values["trace.timeline_gap_pct"] = 100 * (values["trace.interval_ms"] - steps) / values["trace.interval_ms"]
	}
	asc := sorted(feedUs)
	values["engine.feed_call_p50_us"] = percentile(asc, 0.50)
	values["engine.feed_call_p99_us"] = percentile(asc, 0.99)

	// Kernels, on the first traced repetition's input and final routing.
	first := traced[0]
	chunks := kernelChunks(first.head)
	if asg := first.left.assignment; asg != nil {
		values["route.dest_ns_per_tuple"] = routeKernel(chunks, asg)
		values["route.table_entries"] = float64(asg.Table().Len())
	}
	values["stats.observe_ns_per_tuple"] = observeKernel(chunks, w.budget)
	values["engine.split_keys_max"] = float64(first.left.splitMax)

	// Process counters come from the untraced legs: spans and timed
	// operators would inflate them.
	var bTuples float64
	var bProc procDelta
	for _, p := range base {
		bTuples += float64(p.tuples())
		bProc.cpu += p.proc.cpu
		bProc.allocBytes += p.proc.allocBytes
		bProc.gcCPU += p.proc.gcCPU
		if p.proc.peakRSSMB > bProc.peakRSSMB {
			bProc.peakRSSMB = p.proc.peakRSSMB
		}
	}
	values["proc.cpu_s_per_mtuple"] = bProc.cpu.Seconds() / (bTuples / 1e6)
	values["proc.alloc_bytes_per_tuple"] = float64(bProc.allocBytes) / bTuples
	values["proc.gc_cpu_share"] = bProc.gcCPU / bProc.cpu.Seconds()
	values["proc.peak_rss_mb"] = bProc.peakRSSMB

	// The legs of one round run back to back on the same input, so a
	// round's difference is little touched by the host's slow changes of
	// speed; the figure is the median of the rounds' differences.
	paired := func(other []*rep, diff func(base, other float64) float64) float64 {
		var v []float64
		for i := range base {
			v = append(v, diff(base[i].tuplesPerSec(), other[i].tuplesPerSec()))
		}
		return median(v)
	}
	slowdownPct := func(b, o float64) float64 { return 100 * (b - o) / b }
	values["trace.overhead_pct"] = paired(traced, slowdownPct)
	if w.clustered {
		values["cluster.wire_overhead_ns_per_tuple"] = paired(extra, func(b, o float64) float64 { return 1e9/b - 1e9/o })
		encNs, decNs, bytesPer, err := wireKernel(chunks)
		if err != nil {
			return err
		}
		values["protocol.encode_ns_per_tuple"] = encNs
		values["protocol.decode_ns_per_tuple"] = decNs
		values["protocol.bytes_per_tuple"] = bytesPer
		// Connection counters cover the whole run, warm-up included.
		var sent, frames, allTuples, allIntervals float64
		for _, p := range base {
			allIntervals += float64(len(p.allRows))
			allTuples += float64(len(p.allRows) * w.budget)
			for _, s := range p.left.conns {
				for _, c := range s.Conns {
					sent += float64(c.Sent)
					frames += float64(c.SentMsgs)
				}
			}
		}
		values["cluster.bytes_per_tuple"] = sent / allTuples
		values["cluster.frames_per_interval"] = frames / allIntervals
	} else {
		values["trace.driver_gap_pct"] = paired(extra, slowdownPct)
	}
	return nil
}

// shifted returns spans with parent indices moved by off, so that the
// spans of several repetitions can be summarized as one list.
func shifted(spans []span, off int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		out[i] = s
	}
	return out
}

// drawGaps returns, in microseconds, the time between consecutive draw
// spans under the same interval span.
func drawGaps(spans []span) []float64 {
	var gaps []float64
	prev := -1
	for i, s := range spans {
		if s.Name != spanDraw {
			continue
		}
		if prev >= 0 && spans[prev].Parent == s.Parent {
			gaps = append(gaps, float64(s.Start-spans[prev].End)/1e3)
		}
		prev = i
	}
	return gaps
}

// drawShareLimitPct is how much of an interval the replay spout may take
// before the report warns that the benchmark is measuring itself. The
// spout writes one 72-byte tuple per key, about 5 ns; that is 6% of an
// interval on the workloads where the engine spends only 80–120 ns per
// tuple (pipe-local, hotkey) and under 2% elsewhere.
const drawShareLimitPct = 10

// printTimeline prints where an interval's wall time went, step by step.
func printTimeline(out io.Writer, w *workloadDef, v map[string]float64, traced []*rep) {
	iv := v["trace.interval_ms"]
	draw := v["workload.draw_ns_per_tuple"] * float64(w.budget) / 1e6
	fmt.Fprintf(out, "\n%s: driver timeline, ms per interval (%d traced repetitions × %d intervals)\n", w.name, len(traced), len(traced[0].rows))
	row := func(name string, ms float64) {
		fmt.Fprintf(out, "  %-24s %9.4f  %5.1f%%\n", name, ms, 100*ms/iv)
	}
	row("workload.draw", draw)
	row("engine.feed", v["engine.feed_ms"])
	if w.clustered {
		row("cluster.drive_rest", v["cluster.drive_rest_ms"])
	} else {
		row("engine.close", v["engine.close_ms"])
		row("engine.harvest", v["engine.harvest_ms"])
		row("control.round", v["control.round_ms"])
		row("  control.decide", v["control.decide_ms"])
		row("    balance.plan", v["balance.plan_ms"])
		row("  control.apply", v["control.apply_ms"])
		row("engine.model", v["engine.model_ms"])
		row("(not in any span)", iv*v["trace.timeline_gap_pct"]/100)
	}
	row("interval", iv)
	if share := 100 * draw / iv; share >= drawShareLimitPct {
		fmt.Fprintf(out, "  WARNING: the replay spout takes %.1f%% of the interval: the benchmark is measuring itself\n", share)
	}
	if gap := v["trace.timeline_gap_pct"]; math.Abs(gap) > 5 {
		fmt.Fprintf(out, "  WARNING: the steps miss the interval's wall time by %.1f%%\n", gap)
	}
}
