package experiments

import (
	"fmt"

	"repro/internal/hashring"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig. 7 studies the baseline problem: how skewed per-instance load is
// under pure hashing, as a cumulative distribution of the per-interval
// workload-skewness metric max L(d)/L̄ over 50 intervals.

var cdfPercentiles = []float64{20, 40, 60, 80, 100}

// hashSkewnessCDF samples skewness over `intervals` intervals of a
// fluctuating Zipf stream routed purely by hash.
func hashSkewnessCDF(k, nd, intervals int, seed int64) []float64 {
	stream := workload.NewZipfStream(k, defZ, defF, defBudget, seed)
	asg := route.NewAssignment(route.NewTable(), hashring.New(nd, 0))
	var sample []float64
	for i := 0; i < intervals; i++ {
		loads := make([]int64, nd)
		keys, counts := stream.RankLoad()
		for r, c := range counts {
			if c > 0 {
				loads[asg.Dest(keys[r])] += c
			}
		}
		sample = append(sample, stats.Skewness(loads))
		stream.Advance(asg)
	}
	return metrics.CDF(sample, cdfPercentiles)
}

// Fig07a regenerates Fig. 7(a): skewness CDF vs number of instances.
func Fig07a() *Result {
	r := &Result{
		ID:     "fig07a",
		Title:  "Workload skewness CDF under hashing, varying N_D (K=1e5)",
		Header: []string{"N_D", "p20", "p40", "p60", "p80", "p100"},
		Notes:  "skewness grows with N_D (paper: ~2.5x max/min at N_D=40)",
	}
	for _, nd := range []int{5, 10, 20, 40} {
		cdf := hashSkewnessCDF(defK, nd, 50, 7)
		row := []string{fmt.Sprint(nd)}
		for _, v := range cdf {
			row = append(row, metrics.F(v))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig07b regenerates Fig. 7(b): skewness CDF vs key-domain size.
func Fig07b() *Result {
	r := &Result{
		ID:     "fig07b",
		Title:  "Workload skewness CDF under hashing, varying K (N_D=10)",
		Header: []string{"K", "p20", "p40", "p60", "p80", "p100"},
		Notes:  "smaller key domains hash worse (paper: ~4x at K=5000)",
	}
	for _, k := range []int{5000, 10000, 100000, 1000000} {
		cdf := hashSkewnessCDF(k, defND, 50, 7)
		row := []string{fmt.Sprint(k)}
		for _, v := range cdf {
			row = append(row, metrics.F(v))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}
