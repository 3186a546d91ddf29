package route

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/hashring"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// BenchmarkDestTuples is the feeder's routing kernel on warm 1 024-tuple
// chunks of the repository benchmark's pipe input (Zipf z=0.85 over
// 1 000 keys, 4 instances): DestTuples with an empty table, with a
// 32-entry table of the hottest keys, and with that table plus a split
// set of the 4 hottest keys — the per-tuple split test and the per-key
// slot claim the feeder runs after it.
func BenchmarkDestTuples(b *testing.B) {
	const nd, chunk, keys = 4, 1024, 1000
	gen := workload.NewZipfStream(keys, 0.85, 0, chunk, 1)
	chunks := make([][]tuple.Tuple, 64)
	for i := range chunks {
		chunks[i] = make([]tuple.Tuple, chunk)
		gen.NextBatch(chunks[i])
	}
	hot := make(map[tuple.Key]int)
	for _, c := range chunks {
		for i := range c {
			hot[c[i].Key]++
		}
	}
	byLoad := make([]tuple.Key, 0, len(hot))
	for k := range hot {
		byLoad = append(byLoad, k)
	}
	slices.SortFunc(byLoad, func(a, b tuple.Key) int {
		return cmp.Or(cmp.Compare(hot[b], hot[a]), cmp.Compare(a, b))
	})

	ring := hashring.New(nd, 0)
	table := NewTable()
	for i, k := range byLoad[:32] {
		table.Put(k, i%nd)
	}
	splits := NewSplitTable()
	for _, k := range byLoad[:4] {
		d, _ := table.Lookup(k)
		splits.Put(NewSplit(k, d, 2, nd))
	}
	withSplits := NewAssignment(table, ring)
	withSplits.SetSplits(splits)

	for _, bc := range []struct {
		name string
		a    *Assignment
	}{
		{"empty", NewAssignment(nil, ring)},
		{"table32", NewAssignment(table, ring)},
		{"split4", withSplits},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dsts := make([]int, chunk)
			slot := make([]uint64, splits.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := chunks[i%len(chunks)]
				bc.a.DestTuples(ts, dsts)
				if st := bc.a.Splits(); st != nil {
					clear(slot)
					for j := range ts {
						if s := st.Index(ts[j].Key); s >= 0 {
							slot[s]++
						}
					}
					for s, n := range slot {
						if n > 0 {
							slot[s] = st.At(s).Claim(int(n))
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chunk, "ns/tuple")
		})
	}
}
