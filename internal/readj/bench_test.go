package readj

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/stats"
	"repro/internal/tuple"
)

func benchSnapshot(nk int) *stats.Snapshot {
	rng := rand.New(rand.NewSource(1))
	s := &stats.Snapshot{ND: 10}
	for i := 0; i < nk; i++ {
		cost := int64(1 + rng.Intn(4))
		if i < nk/50+1 {
			cost = int64(50 + rng.Intn(200))
		}
		hash := rng.Intn(10)
		s.Keys = append(s.Keys, stats.KeyStat{
			Key: tuple.Key(i), Cost: cost, Mem: cost, Dest: hash, Hash: hash,
		})
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

func BenchmarkReadjPlan10k(b *testing.B) {
	snap := benchSnapshot(10000)
	cfg := balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5, MaxTrials: 32}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Planner{Sigma: 0.1}.Plan(snap, cfg)
	}
}

func BenchmarkReadjTune10k(b *testing.B) {
	snap := benchSnapshot(10000)
	cfg := balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5, MaxTrials: 32}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tune(snap, cfg, nil)
	}
}
