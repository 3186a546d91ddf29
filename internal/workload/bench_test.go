package workload

import (
	"testing"

	"repro/internal/tuple"
)

// BenchmarkZipfNextBatch draws one interval per op, then crosses the
// interval boundary, at the repository benchmark's three generator
// shapes: pipe-local's and pipe-cluster's (K 1 000, z 0.85, 40 000
// tuples), variance's (K 100 000, f 1, 20 000 tuples, re-ranked against
// 8 instances every interval) and hotkey's (K 10 000, z 1.5, 10 000
// tuples). ns/tuple is the whole op's time per drawn tuple, Advance
// included; an op allocates nothing.
func BenchmarkZipfNextBatch(b *testing.B) {
	for _, c := range []struct {
		name       string
		k          int
		z, f       float64
		budget, nd int
	}{
		{"pipe", 1000, 0.85, 0, 40000, 4},
		{"variance", 100000, 0.85, 1, 20000, 8},
		{"hotkey", 10000, 1.5, 0, 10000, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewZipfStream(c.k, c.z, c.f, int64(c.budget), 1)
			buf := make([]tuple.Tuple, c.budget)
			asg := fixedAsg(c.nd)
			s.Advance(asg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.NextBatch(buf)
				s.Advance(asg)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.budget), "ns/tuple")
		})
	}
}

func BenchmarkZipfRank(b *testing.B) {
	s := NewZipfStream(100000, 0.85, 1.0, 10000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func BenchmarkZipfAdvance(b *testing.B) {
	s := NewZipfStream(100000, 0.85, 1.0, 100000, 1)
	asg := fixedAsg(10)
	s.Advance(asg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance(asg)
	}
}

func BenchmarkExpectedCounts(b *testing.B) {
	d := NewZipf(100000, 0.85)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.ExpectedCounts(100000)
	}
}

func BenchmarkTPCHNext(b *testing.B) {
	g := NewTPCH(DefaultTPCHConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkStockNext(b *testing.B) {
	s := NewStock(0, 0.85, 1)
	s.Advance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}
