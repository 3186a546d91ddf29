package compact

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func benchSnap(nk int) *stats.Snapshot {
	rng := rand.New(rand.NewSource(2))
	s := &stats.Snapshot{ND: 10}
	for i := 0; i < nk; i++ {
		c := int64(1 + rng.Intn(100))
		hash := rng.Intn(10)
		dest := hash
		if rng.Intn(4) == 0 {
			dest = rng.Intn(10)
		}
		s.Keys = append(s.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: c, Mem: c * int64(1+rng.Intn(3)),
			Dest: dest, Hash: hash,
		})
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

func BenchmarkBuildVectors(b *testing.B) {
	snap := benchSnap(50000)
	for _, R := range []int64{1, 8, 64} {
		b.Run(fmt.Sprintf("R=%d", R), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(snap, R)
			}
		})
	}
}

func BenchmarkCompactPlan(b *testing.B) {
	snap := benchSnap(50000)
	cfg := balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5, MaxTrials: 32}
	for _, R := range []int64{1, 8, 64} {
		b.Run(fmt.Sprintf("R=%d", R), func(b *testing.B) {
			b.ReportAllocs()
			p := Planner{R: R}
			for i := 0; i < b.N; i++ {
				p.Plan(snap, cfg)
			}
		})
	}
}

func BenchmarkDiscretizeAll(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]int64, 100000)
	for i := range xs {
		xs[i] = int64(1 + rng.Intn(1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiscretizeAll(xs, 8)
	}
}
