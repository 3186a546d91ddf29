// Package workload provides the four workload families of the paper's
// evaluation (§V): synthetic Zipf streams with controllable skew z and
// fluctuation rate f, a Social microblog-like feed (many keys, slow
// drift), a Stock trade tape (few keys, abrupt bursts), and a TPC-H
// dbgen-lite row generator with Zipf-skewed foreign keys for the Q5
// pipeline. All generators are deterministic given a seed.
package workload

import (
	"math"
	"math/rand"
)

// Zipf is a discrete Zipf(z) distribution over ranks 1..K with
// P(rank r) ∝ 1/r^z. Unlike math/rand.Zipf it accepts any z ≥ 0
// (the paper sweeps z ∈ [0, 1], where stdlib requires s > 1).
type Zipf struct {
	K   int
	cdf []float64 // cdf[i] = P(rank ≤ i+1)
	// guide[j] is the first index whose cdf reaches j/M, for the M =
	// len(guide)-1 equal slices of [0, 1]: a draw u in slice j can only
	// land in cdf[guide[j]..guide[j+1]], so Rank searches that instead of
	// the whole CDF (Chen and Asau's indexed search). M is a power of
	// two, which makes ⌊u·M⌋ and j/M exact and the narrowed search return
	// the very index the full one would.
	//
	// M is the smallest power of two ≥ 4·K, capped at 2¹⁹ slices but
	// never below the smallest power of two ≥ K. Past the head a rank's
	// probability is under 1/K, so at one slice per rank the tail's
	// slices each span several CDF steps, and for z ≤ 1 much of the mass
	// lies there: at K = 1 000, z = 0.85, 26 % of draws land in a window
	// of two or more entries. At four slices per rank 0.1 % do, and most
	// windows are empty, so the search loop does not run. The cap is
	// there because past it the guide (4 bytes a slice) outgrows the
	// caches the CDF already competes for: at K = 10⁶ a 4× guide made a
	// draw slower, not faster (≈ 50 → 56 ns on a 2-vCPU Xeon).
	guide []int32
}

// maxGuide caps the guide's slice count (see Zipf.guide).
const maxGuide = 1 << 19

// NewZipf precomputes the CDF for K ranks with skew z.
func NewZipf(k int, z float64) *Zipf {
	if k < 1 {
		panic("workload: Zipf needs K ≥ 1")
	}
	d := &Zipf{K: k, cdf: make([]float64, k)}
	var sum float64
	for i := 0; i < k; i++ {
		sum += 1 / math.Pow(float64(i+1), z)
		d.cdf[i] = sum
	}
	for i := range d.cdf {
		d.cdf[i] /= sum
	}
	m := 1
	for m < 4*k && m < maxGuide {
		m <<= 1
	}
	for m < k {
		m <<= 1
	}
	d.guide = make([]int32, m+1)
	i := 0
	for j := range d.guide {
		// cdf[k-1] is sum/sum = 1 ≥ x: the sweep ends inside the CDF.
		for x := float64(j) / float64(m); i < k-1 && d.cdf[i] < x; {
			i++
		}
		d.guide[j] = int32(i)
	}
	return d
}

// Rank draws a rank in [1, K] (1 = hottest).
func (d *Zipf) Rank(rng *rand.Rand) int { return d.rankAt(rng.Float64()) }

// rankAt returns the rank a uniform draw u ∈ [0, 1) selects: one plus
// the first index whose cdf is at least u.
func (d *Zipf) rankAt(u float64) int {
	j := int(u * float64(len(d.guide)-1))
	lo, hi := int(d.guide[j]), int(d.guide[j+1])
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); d.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Prob returns P(rank r).
func (d *Zipf) Prob(r int) float64 {
	if r < 1 || r > d.K {
		return 0
	}
	if r == 1 {
		return d.cdf[0]
	}
	return d.cdf[r-1] - d.cdf[r-2]
}

// ExpectedCounts returns the expected number of tuples per rank when n
// tuples are drawn — the planner-facing load shape without sampling
// noise, used by the pure-algorithm experiments so results are exactly
// reproducible.
func (d *Zipf) ExpectedCounts(n int64) []int64 {
	out := make([]int64, d.K)
	var acc float64
	var emitted int64
	for r := 1; r <= d.K; r++ {
		acc += d.Prob(r) * float64(n)
		c := int64(acc) - emitted
		emitted += c
		out[r-1] = c
	}
	return out
}
