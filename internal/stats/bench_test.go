package stats

import (
	"testing"

	"repro/internal/tuple"
)

// benchTuples cycles a bounded key set so the tracker map reaches a
// steady size instead of growing with b.N.
func benchTuples(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.New(tuple.Key(uint64(i)*2654435761%4096), nil)
	}
	return ts
}

func BenchmarkTrackerObserveBatch(b *testing.B) {
	tr := NewTracker(1)
	const batch = 256
	ts := benchTuples(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		off := n % len(ts)
		if off+batch > len(ts) {
			off = 0
		}
		tr.ObserveBatch(ts[off : off+batch])
	}
}
