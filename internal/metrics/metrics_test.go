package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRecorderMeans(t *testing.T) {
	r := &Recorder{}
	r.Add(Interval{Throughput: 100, LatencyMs: 10, Skewness: 1.2})
	r.Add(Interval{Throughput: 200, LatencyMs: 20, Skewness: 1.4})
	if got := r.MeanThroughput(); got != 150 {
		t.Fatalf("MeanThroughput = %v", got)
	}
	if got := r.MeanLatency(); got != 15 {
		t.Fatalf("MeanLatency = %v", got)
	}
	if got := r.MeanSkewness(); got < 1.299 || got > 1.301 {
		t.Fatalf("MeanSkewness = %v", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRecorderEmptyMeansZero(t *testing.T) {
	r := &Recorder{}
	if r.MeanThroughput() != 0 || r.MeanLatency() != 0 || r.MeanPlanMs() != 0 {
		t.Fatal("empty recorder means not zero")
	}
}

func TestRebalanceOnlyAverages(t *testing.T) {
	r := &Recorder{}
	r.Add(Interval{MigrationPct: 10, PlanMs: 4, Rebalanced: true})
	r.Add(Interval{MigrationPct: 0, PlanMs: 0, Rebalanced: false})
	r.Add(Interval{MigrationPct: 20, PlanMs: 8, Rebalanced: true})
	if got := r.MeanMigrationPct(); got != 15 {
		t.Fatalf("MeanMigrationPct = %v, want 15 (over rebalanced intervals only)", got)
	}
	if got := r.MeanPlanMs(); got != 6 {
		t.Fatalf("MeanPlanMs = %v, want 6", got)
	}
}

func TestRecoveryIntervals(t *testing.T) {
	r := &Recorder{}
	for _, thr := range []float64{100, 40, 60, 95, 100} {
		r.Add(Interval{Throughput: thr})
	}
	if got := r.RecoveryIntervals(1, 100, 0.9); got != 2 {
		t.Fatalf("RecoveryIntervals = %d, want 2 (95 ≥ 90 at index 3)", got)
	}
	if got := r.RecoveryIntervals(1, 1000, 0.9); got != -1 {
		t.Fatalf("unreachable target returned %d, want -1", got)
	}
}

func TestCDF(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5}
	got := CDF(sample, []float64{20, 60, 100})
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CDF = %v, want %v", got, want)
		}
	}
	if out := CDF(nil, []float64{50}); out[0] != 0 {
		t.Fatal("empty-sample CDF not zero")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		out := CDF(xs, []float64{25, 50, 75, 100})
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAlignment(t *testing.T) {
	s := Table([]string{"a", "long-header"}, [][]string{{"xxxx", "1"}})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator not aligned with header: %q vs %q", lines[0], lines[1])
	}
	if !strings.Contains(lines[2], "xxxx") {
		t.Fatal("row content missing")
	}
}

func TestF(t *testing.T) {
	cases := map[float64]string{0: "0", 12345: "12345", 42.42: "42.4", 1.23456: "1.235"}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Fatalf("F(%v) = %q, want %q", in, got, want)
		}
	}
}

// The summaries below are only this package's tests' to read: the
// exhibits and the benchmark summarize their series themselves.

// MeanSkewness averages the skewness metric.
func (r *Recorder) MeanSkewness() float64 {
	return r.mean(func(m Interval) float64 { return m.Skewness })
}

// MeanMigrationPct averages migration cost over the intervals where a
// rebalance actually ran (the paper reports cost per adjustment).
func (r *Recorder) MeanMigrationPct() float64 {
	var s float64
	var n int
	for _, m := range r.Series {
		if m.Rebalanced {
			s += m.MigrationPct
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// MeanPlanMs averages plan-generation time over rebalance intervals.
func (r *Recorder) MeanPlanMs() float64 {
	var s float64
	var n int
	for _, m := range r.Series {
		if m.Rebalanced {
			s += m.PlanMs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// RecoveryIntervals returns how many intervals after `from` it took for
// throughput to reach frac·target — the Fig. 15 "time to rebalance
// after scale-out" measure. Returns -1 if never reached.
func (r *Recorder) RecoveryIntervals(from int, target, frac float64) int {
	for i := from; i < len(r.Series); i++ {
		if r.Series[i].Throughput >= frac*target {
			return i - from
		}
	}
	return -1
}
