// Package compact implements §IV of the paper: the 6-dimensional
// compact representation of key statistics (d′, d, dh, vc, vS, #), the
// half-linear-half-exponential (HLHE) discretization of computation
// cost and memory values with greedy deviation cancellation
// (Theorem 3), and the Mixed algorithm adapted to plan over vectors
// instead of individual keys.
package compact

import "sort"

// Representatives builds the HLHE representative-value ladder for a
// maximum observed value and a degree of discretization R = 2^r:
// a linear part s·R, (s−1)·R, …, R with s = ⌊max/R⌋, followed by an
// exponential tail R/2, R/4, …, 2, 1. The result is strictly
// decreasing. R must be a power of two ≥ 1; max must be ≥ 1.
func Representatives(max, R int64) []int64 {
	if max < 1 {
		max = 1
	}
	if R < 1 {
		R = 1
	}
	var reps []int64
	s := max / R
	// When max is not a multiple of R the paper's ladder tops out below
	// max, leaving values in (s·R, max] with a single candidate and an
	// unbounded one-sided deviation; extending one linear step keeps
	// every value bracketed (and is a no-op when R divides max).
	if s*R < max {
		reps = append(reps, (s+1)*R)
	}
	for i := s; i >= 1; i-- {
		reps = append(reps, i*R)
	}
	for v := R / 2; v >= 1; v /= 2 {
		reps = append(reps, v)
	}
	if len(reps) == 0 {
		reps = []int64{1}
	}
	return reps
}

// Discretizer maps raw values onto HLHE representatives while greedily
// cancelling the accumulated deviation δ = Σ(x − φ(x)): of the two
// bracketing representatives, it picks the one minimizing |δ| after the
// step (ties favour the smaller), so partial sums of discretized values
// track the true sums — the property Theorem 3 relies on, and the exact
// choice sequence of the Fig. 6(b) worked example. Values must be fed
// in non-increasing order, matching the paper's setup.
type Discretizer struct {
	reps []int64
	// delta is the running accumulated deviation Σ(x − φ(x)).
	delta int64
}

// NewDiscretizer builds a discretizer for values up to max with degree R.
func NewDiscretizer(max, R int64) *Discretizer {
	return &Discretizer{reps: Representatives(max, R)}
}

// Map returns φ(x) for the next value in the non-increasing stream.
// Values below 1 are clamped to 1 (the paper normalizes the smallest
// value to at least 1).
func (d *Discretizer) Map(x int64) int64 {
	if x < 1 {
		x = 1
	}
	reps := d.reps
	if x >= reps[0] {
		d.delta += x - reps[0]
		return reps[0]
	}
	// Find j with reps[j-1] > x ≥ reps[j]; reps is strictly decreasing.
	j := sort.Search(len(reps), func(i int) bool { return reps[i] <= x })
	if j == len(reps) {
		j = len(reps) - 1 // below the smallest representative (x clamped, shouldn't happen)
	}
	lo := reps[j]
	hi := reps[j-1]
	// Pick the candidate minimizing the absolute accumulated deviation;
	// ties favour the smaller representative (matches Fig. 6(b)).
	dLo := d.delta + x - lo
	dHi := d.delta + x - hi
	phi := lo
	if absI(dHi) < absI(dLo) {
		phi = hi
	}
	d.delta += x - phi
	return phi
}

func absI(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// NaiveDiscretize maps each value to its nearest representative
// independently — the "simple piecewise constant function" strawman of
// Fig. 6(a). It exists for the ablation comparing holistic greedy
// deviation cancellation against per-value rounding.
func NaiveDiscretize(xs []int64, R int64) []int64 {
	var max int64 = 1
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	reps := Representatives(max, R)
	out := make([]int64, len(xs))
	for i, x := range xs {
		if x < 1 {
			x = 1
		}
		j := sort.Search(len(reps), func(i int) bool { return reps[i] <= x })
		if j == 0 {
			out[i] = reps[0]
			continue
		}
		if j == len(reps) {
			j = len(reps) - 1
		}
		lo, hi := reps[j], reps[j-1]
		if x-lo <= hi-x {
			out[i] = lo
		} else {
			out[i] = hi
		}
	}
	return out
}

// DiscretizeAll maps a batch of values. The batch is processed in
// non-increasing order of value, and the result slice is index-aligned
// with the input.
func DiscretizeAll(xs []int64, R int64) []int64 {
	if len(xs) == 0 {
		return nil
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	max := xs[idx[0]]
	d := NewDiscretizer(max, R)
	out := make([]int64, len(xs))
	for _, i := range idx {
		out[i] = d.Map(xs[i])
	}
	return out
}
