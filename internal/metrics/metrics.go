// Package metrics defines the evaluation measurements of §V — workload
// skewness, migration cost, throughput, plan-generation time, and
// processing latency — plus a recorder for per-interval series (the
// time-axis figures) and aggregate summaries (the bar-chart figures).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Interval is one logical interval's measurements for one stage.
type Interval struct {
	Index int64
	// Throughput is processed tuples per simulated second.
	Throughput float64
	// LatencyMs is the arrival-weighted mean processing latency.
	LatencyMs float64
	// Skewness is max L(d) / L̄ of the interval's arrived load: the cost
	// each task was sent, a split key's tuples charged to the replicas
	// that run them.
	Skewness float64
	// MaxTheta is max_d |L(d)−L̄|/L̄ of the same load.
	MaxTheta float64
	// MigrationPct is this interval's migrated state as a percentage of
	// total live state (zero when no rebalance ran).
	MigrationPct float64
	// PlanMs is the rebalance plan generation time, if one ran.
	PlanMs float64
	// TableSize is the routing-table size after any rebalance.
	TableSize int
	// Emitted is the number of tuples the spout emitted (post-throttle).
	Emitted int64
	// Rebalanced marks intervals where a migration plan was applied.
	Rebalanced bool
	// ScaleOuts and ScaleIns count elastic resize events applied at
	// this interval's end (instances added / retired live by the
	// control plane's ScaleOut and ScaleIn commands). Like every
	// Interval field they describe the engine's target stage; resizes
	// of other stages are recorded in their policies' histories.
	ScaleOuts int
	ScaleIns  int
}

// Recorder accumulates a per-interval series.
type Recorder struct {
	Series []Interval
}

// Add appends one interval.
func (r *Recorder) Add(m Interval) { r.Series = append(r.Series, m) }

// Len returns the number of recorded intervals.
func (r *Recorder) Len() int { return len(r.Series) }

// MeanThroughput averages throughput over all intervals.
func (r *Recorder) MeanThroughput() float64 {
	return r.mean(func(m Interval) float64 { return m.Throughput })
}

// MeanLatency averages latency over all intervals.
func (r *Recorder) MeanLatency() float64 {
	return r.mean(func(m Interval) float64 { return m.LatencyMs })
}

func (r *Recorder) mean(f func(Interval) float64) float64 {
	if len(r.Series) == 0 {
		return 0
	}
	var s float64
	for _, m := range r.Series {
		s += f(m)
	}
	return s / float64(len(r.Series))
}

// CDF computes the cumulative distribution of a sample at the given
// percentiles (0–100], e.g. Fig. 7's skewness percentile curves.
func CDF(sample []float64, percentiles []float64) []float64 {
	if len(sample) == 0 {
		return make([]float64, len(percentiles))
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	out := make([]float64, len(percentiles))
	for i, p := range percentiles {
		idx := int(math.Ceil(p/100*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}

// Table renders an aligned text table; the bench harness uses it to
// print figure series the way the paper's plots read.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(x float64) string {
	switch {
	case x == 0:
		return "0"
	case math.Abs(x) >= 1000:
		return fmt.Sprintf("%.0f", x)
	case math.Abs(x) >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}
