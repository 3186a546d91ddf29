package compact_test

import (
	"fmt"

	"repro/internal/compact"
)

// ExampleDiscretizer walks the worked example of the paper's Fig. 6(b):
// ten values discretized at degree R = 4 with zero total deviation.
func ExampleDiscretizer() {
	xs := []int64{8, 6, 3, 2, 2, 1, 1, 1, 1, 1}
	d := compact.NewDiscretizer(8, 4)
	phis := make([]int64, len(xs))
	var deviation int64 // Σ x − φ(x)
	for i, x := range xs {
		phis[i] = d.Map(x)
		deviation += x - phis[i]
	}
	fmt.Println(phis)
	fmt.Printf("total deviation: %d\n", deviation)
	// Output:
	// [8 4 4 2 2 2 1 1 1 1]
	// total deviation: 0
}

// ExampleRepresentatives shows the half-linear-half-exponential ladder.
func ExampleRepresentatives() {
	fmt.Println(compact.Representatives(8, 4))
	// Output: [8 4 2 1]
}
