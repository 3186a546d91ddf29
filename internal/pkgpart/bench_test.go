package pkgpart

import (
	"testing"

	"repro/internal/tuple"
)

func BenchmarkRoute(b *testing.B) {
	r := NewRouter(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Route(tuple.New(tuple.Key(i%1000), nil))
	}
}
