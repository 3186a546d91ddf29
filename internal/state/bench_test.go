package state

import (
	"testing"

	"repro/internal/tuple"
)

func BenchmarkExtractInject(b *testing.B) {
	src, dst := NewStore(5), NewStore(5)
	for k := 0; k < 1000; k++ {
		for j := 0; j < 10; j++ {
			src.Add(tuple.Key(k), Entry{Size: 1})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := tuple.Key(i % 1000)
		m := src.Extract(k)
		dst.Inject(m)
		src, dst = dst, src
	}
}
