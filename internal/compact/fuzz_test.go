package compact

import (
	"sort"
	"testing"
)

// Fuzz targets double as seeded unit tests under plain `go test`.

func FuzzDiscretizerDeviationBounded(f *testing.F) {
	f.Add([]byte{8, 6, 3, 2, 2, 1, 1}, uint8(2))
	f.Add([]byte{200, 199, 150, 90, 3, 1}, uint8(4))
	f.Add([]byte{1, 1, 1, 1}, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, rExp uint8) {
		if len(raw) == 0 {
			return
		}
		R := int64(1) << (rExp % 9)
		xs := make([]int64, len(raw))
		for i, b := range raw {
			xs[i] = int64(b) + 1
		}
		sort.Slice(xs, func(a, b int) bool { return xs[a] > xs[b] })
		d := NewDiscretizer(xs[0], R)
		reps := d.reps
		// Ladder sanity: strictly decreasing, ends at 1, covers max.
		for i := 1; i < len(reps); i++ {
			if reps[i-1] <= reps[i] {
				t.Fatalf("ladder not strictly decreasing: %v", reps)
			}
		}
		if reps[len(reps)-1] != 1 {
			t.Fatalf("ladder does not end at 1: %v", reps)
		}
		if reps[0] < xs[0] {
			t.Fatalf("ladder top %d below max %d", reps[0], xs[0])
		}
		maxGap := int64(1)
		for i := 1; i < len(reps); i++ {
			if g := reps[i-1] - reps[i]; g > maxGap {
				maxGap = g
			}
		}
		for _, x := range xs {
			phi := d.Map(x)
			// φ(x) must be one of the representatives.
			found := false
			for _, r := range reps {
				if r == phi {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("φ(%d) = %d is not a representative", x, phi)
			}
			// The accumulated deviation stays within one ladder gap.
			if d.delta > maxGap || d.delta < -maxGap {
				t.Fatalf("|δ| = %d exceeds max gap %d", d.delta, maxGap)
			}
		}
	})
}

func FuzzNaiveDiscretizePicksRepresentative(f *testing.F) {
	f.Add([]byte{5, 4, 3, 2, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, rExp uint8) {
		if len(raw) == 0 {
			return
		}
		R := int64(1) << (rExp % 9)
		xs := make([]int64, len(raw))
		var max int64 = 1
		for i, b := range raw {
			xs[i] = int64(b) + 1
			if xs[i] > max {
				max = xs[i]
			}
		}
		out := NaiveDiscretize(xs, R)
		reps := Representatives(max, R)
		in := map[int64]bool{}
		for _, r := range reps {
			in[r] = true
		}
		for i, phi := range out {
			if !in[phi] {
				t.Fatalf("naive φ(%d) = %d not a representative", xs[i], phi)
			}
		}
	})
}
