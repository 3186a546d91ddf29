package route

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/hashring"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// zipfChunks draws 64 warm 1 024-tuple chunks of a Zipf stream and
// returns them with the stream's keys ordered by load, heaviest first.
func zipfChunks(keys int, z float64) ([][]tuple.Tuple, []tuple.Key) {
	const chunk = 1024
	gen := workload.NewZipfStream(keys, z, 0, chunk, 1)
	chunks := make([][]tuple.Tuple, 64)
	load := make(map[tuple.Key]int)
	for i := range chunks {
		chunks[i] = make([]tuple.Tuple, chunk)
		gen.NextBatch(chunks[i])
		for _, t := range chunks[i] {
			load[t.Key]++
		}
	}
	byLoad := make([]tuple.Key, 0, len(load))
	for k := range load {
		byLoad = append(byLoad, k)
	}
	slices.SortFunc(byLoad, func(a, b tuple.Key) int {
		return cmp.Or(cmp.Compare(load[b], load[a]), cmp.Compare(a, b))
	})
	return chunks, byLoad
}

// splitAssignment returns an assignment over ring with a table of the
// keys ranked [skip, skip+entries) and a split set of the top nsplit
// keys, each fanned over fan instances from its home.
func splitAssignment(ring *hashring.Ring, byLoad []tuple.Key, skip, entries, nsplit, fan int) *Assignment {
	nd := ring.Instances()
	table := NewTable()
	for i, k := range byLoad[skip : skip+entries] {
		table.Put(k, i%nd)
	}
	a := NewAssignment(table, ring)
	if nsplit > 0 {
		splits := NewSplitTable()
		for _, k := range byLoad[:nsplit] {
			splits.Put(NewSplit(k, a.Dest(k), fan, nd))
		}
		a.SetSplits(splits)
	}
	return a
}

// BenchmarkDestTuples is the feeder's routing kernel on warm 1 024-tuple
// chunks. The pipe rows use the repository benchmark's pipe input (Zipf
// z=0.85 over 1 000 keys, 4 instances): an empty table, a 32-entry table
// of the hottest keys, and that table plus a split set of the 4 hottest
// keys. The hotkey row uses its hotkey input (z=1.5 over 10 000 keys, 8
// instances): the top key, ≈ 40 % of the tuples, split 4 ways beside an
// 80-entry table. A split row adds what the feeder runs after the
// probe: counting each split key's marked tuples and claiming their
// round-robin slots.
func BenchmarkDestTuples(b *testing.B) {
	const chunk = 1024
	pipe, pipeLoad := zipfChunks(1000, 0.85)
	hot, hotLoad := zipfChunks(10000, 1.5)
	ring4, ring8 := hashring.New(4, 0), hashring.New(8, 0)
	for _, bc := range []struct {
		name   string
		chunks [][]tuple.Tuple
		a      *Assignment
	}{
		{"empty", pipe, NewAssignment(nil, ring4)},
		{"table32", pipe, splitAssignment(ring4, pipeLoad, 0, 32, 0, 0)},
		{"split4", pipe, splitAssignment(ring4, pipeLoad, 0, 32, 4, 2)},
		{"hotkey-split1-table80", hot, splitAssignment(ring8, hotLoad, 1, 80, 1, 4)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dsts := make([]int, chunk)
			var slot []uint64
			if st := bc.a.Splits(); st != nil {
				slot = make([]uint64, st.Len())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := bc.chunks[i%len(bc.chunks)]
				bc.a.DestTuples(ts, dsts)
				if st := bc.a.Splits(); st != nil {
					clear(slot)
					for _, d := range dsts {
						if d < 0 {
							slot[^d]++
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
