// Command bench is the repository's performance benchmark: four
// workloads, five end-to-end metrics with regression bounds, and a traced
// run that attributes an interval's time to the layers under internal/.
// See README.md in this directory; BENCHMARK.json at the repository root
// is the machine-readable contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// commit is stamped by run.sh (-ldflags -X); go run leaves it unset.
var commit = "unknown"

// Seeds. Runs default to defaultSeed; heldOutSeed was not used while the
// workloads were sized and the bounds set, and is the seed to confirm a
// performance claim on.
const (
	defaultSeed = 1
	heldOutSeed = 2
)

// defaultSeconds is the run length BENCHMARK.json fixes (run_seconds).
const defaultSeconds = 20

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed; %d is held out for confirming claims", heldOutSeed))
		seconds      = flag.Float64("seconds", defaultSeconds, "size of the fixed work: about this many seconds of timed intervals per workload on the reference host")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		smoke        = flag.Bool("smoke", false, "tiny run (10 timed intervals) that also checks exact per-key counts")
		checkRepeat  = flag.Bool("check-repeat", false, "run two end-to-end sets back to back and fail if they disagree beyond the bounds")
		spanTo       = flag.String("out", "", "with -trace 1: directory to write each traced repetition's spans to, as JSON lines")
		describe     = flag.Bool("describe", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *describe {
		os.Stdout.Write(describeJSON())
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workloadFlag != "" {
		w := workloadNamed(*workloadFlag)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
			os.Exit(2)
		}
		selected = []*workloadDef{w}
	}
	out := os.Stdout
	fmt.Fprintf(out, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, *seed, *seconds, *trace)

	ok := true
	for _, w := range selected {
		sz := sizesFor(w, *seconds)
		if *smoke {
			sz = smokeSizes
		}
		var err error
		switch {
		case *checkRepeat:
			var same bool
			same, err = repeatCheck(w, *seed, sz, out)
			ok = ok && same
		case *trace == 1:
			var res *result
			if res, err = traceRun(w, *seed, sz, *spanTo, out); err == nil {
				ok = report(out, res, perLayer) && ok
			}
		default:
			var res *result
			if res, err = endToEndRun(w, *seed, sz, out); err == nil {
				ok = report(out, res, endToEnd) && ok
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints every metric of defs by name with its unit, then the
// result line the benchmark's driver reads: one JSON object, last on
// standard output. It returns whether the outputs were correct.
func report(out io.Writer, res *result, defs []metricDef) bool {
	w := res.workload
	fmt.Fprintf(out, "\n%s: metrics\n", w.name)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, m := range defs {
		v := res.values[m.name]
		line.Metrics[m.name] = value{v, m.unit}
		spread := ""
		if s := res.samples[m.name]; len(s) > 1 {
			q1, _, q3 := quartiles(s)
			spread = fmt.Sprintf("  (quartiles %.6g .. %.6g over %d repetitions)", q1, q3, len(s))
		}
		fmt.Fprintf(out, "  %-36s %16.6g %-9s%s\n", m.name, v, m.unit, spread)
	}
	fmt.Fprintf(out, "  failed/attempted: %d/%d tuples\n", res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintf(out, "  INCORRECT: %s\n", p)
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // the line holds only finite numbers and strings
	}
	fmt.Fprintf(out, "%s\n", b)
	return res.correct()
}

// repeatCheck runs the end-to-end set twice on the same seed and holds
// the two against each other: a timed metric's medians may differ by at
// most its bound, an exact metric not at all. It is how the bounds in
// metrics.go were derived, and how to check they still hold on a host.
func repeatCheck(w *workloadDef, seed int64, sz sizes, out io.Writer) (bool, error) {
	var sets [2]*result
	for i := range sets {
		fmt.Fprintf(out, "\n== %s: set %d of 2 ==", w.name, i+1)
		res, err := endToEndRun(w, seed, sz, out)
		if err != nil {
			return false, err
		}
		sets[i] = res
	}
	ok := sets[0].correct() && sets[1].correct()
	fmt.Fprintf(out, "\n%s: two sets on seed %d\n", w.name, seed)
	fmt.Fprintf(out, "  %-20s %14s %8s %14s %8s %8s %7s\n", "metric", "set 1", "IQR", "set 2", "IQR", "gap", "bound")
	for _, m := range endToEnd {
		a, b := sets[0].values[m.name], sets[1].values[m.name]
		gap := 0.0
		if a != 0 {
			gap = math.Abs(b-a) / math.Abs(a)
		}
		verdict := "ok"
		switch {
		case m.exact && a != b:
			verdict = "DIFFERS (must repeat exactly)"
			ok = false
		case gap > m.bound:
			verdict = "BEYOND BOUND"
			ok = false
		}
		fmt.Fprintf(out, "  %-20s %14.6g %7.2f%% %14.6g %7.2f%% %7.2f%% %6.0f%%  %s\n", m.name,
			a, 100*iqrShare(sets[0].samples[m.name]), b, 100*iqrShare(sets[1].samples[m.name]), 100*gap, 100*m.bound, verdict)
	}
	for _, s := range sets {
		fmt.Fprintf(out, "  failed/attempted: %d/%d tuples\n", s.failed, s.attempted)
		for _, p := range s.problems {
			fmt.Fprintf(out, "  INCORRECT: %s\n", p)
		}
	}
	return ok, nil
}

// describeJSON renders BENCHMARK.json from the tables in this package.
func describeJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&doc); err != nil {
		panic(err) // plain strings and numbers
	}
	return []byte(b.String())
}
