package stats_test

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/tuple"
)

// ExampleTheta computes the balance indicator of §II-A for the paper's
// Fig. 4 starting point: loads 16 and 4 around an average of 10.
func ExampleTheta() {
	loads := []int64{16, 4}
	fmt.Println(stats.Theta(loads))
	fmt.Println("skewness:", stats.Skewness(loads))
	// Output:
	// [0.6 0.6]
	// skewness: 1.6
}

// ExampleTracker shows the per-interval statistics cycle: observe
// tuples, close the interval, read c(k), g(k) and S(k, w).
func ExampleTracker() {
	tr := stats.NewTracker(2) // w = 2 intervals
	tr.ObserveBatch([]tuple.Tuple{
		{Key: 7, Cost: 3, StateSize: 1},
		{Key: 7, Cost: 2, StateSize: 1},
	})
	ks := tr.EndInterval()[0] // one key touched: a run of one
	fmt.Printf("c=%d g=%d S=%d\n", ks.Cost, ks.Freq, ks.Mem)
	// Output: c=5 g=2 S=2
}
