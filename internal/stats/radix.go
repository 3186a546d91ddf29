package stats

import "math"

// costKey is one harvested key in radix-sortable form: w[0] is the key
// and w[1] the order-reversing image of its int64 cost, so ascending
// (w[1], w[0]) is KeyStatLess — descending cost, ascending key — for
// keys that are unique within the run. cell locates the key's tally.
type costKey struct {
	w    [2]uint64
	cell int32
}

func newCostKey(cost int64, key uint64, cell int) costKey {
	// Flipping all but the sign bit maps int64 order onto reversed
	// uint64 order: MaxInt64 → 0, 0 → MaxInt64, MinInt64 → MaxUint64.
	return costKey{w: [2]uint64{key, uint64(cost) ^ math.MaxInt64}, cell: int32(cell)}
}

// sortCostKeys orders recs by (w[1], w[0]) ascending with a byte-wise
// least-significant-digit radix sort between recs and tmp, and returns
// the sorted slice and the other buffer (grown if it was too small).
// One counting pass builds all sixteen byte histograms; a byte position
// on which every record agrees — the high bytes of small costs and
// small keys — costs nothing more, so a close over n touched keys moves
// each record once per byte that actually varies, with no comparisons
// and no data-dependent branches. The order is total, so the result is
// what any comparison sort under KeyStatLess would produce.
func sortCostKeys(recs, tmp []costKey) (sorted, spare []costKey) {
	n := len(recs)
	if cap(tmp) < n {
		tmp = make([]costKey, n, cap(recs))
	}
	tmp = tmp[:n]
	if n < 2 {
		return recs, tmp
	}
	var hist [16][256]int32
	for i := range recs {
		k, c := recs[i].w[0], recs[i].w[1]
		for b := 0; b < 8; b++ {
			hist[b][byte(k>>(8*b))]++
			hist[8+b][byte(c>>(8*b))]++
		}
	}
	for b := 0; b < 16; b++ {
		h := &hist[b]
		word, shift := b>>3, 8*(b&7)
		if int(h[byte(recs[0].w[word]>>shift)]) == n {
			continue
		}
		var at int32
		for v := range h {
			h[v], at = at, at+h[v]
		}
		for i := range recs {
			v := byte(recs[i].w[word] >> shift)
			tmp[h[v]] = recs[i]
			h[v]++
		}
		recs, tmp = tmp, recs
	}
	return recs, tmp
}
