package state

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/tuple"
)

// intervalShape is one task's share of a BENCHMARK.json workload: each
// interval draws `touched` distinct keys out of `keys` and adds `tuples`
// entries spread over them.
type intervalShape struct {
	name                  string
	keys, touched, tuples int
	window                int
}

// The two shapes the repository benchmark runs: pipe-local's 40 tuples
// on every key with w = 1, and variance's ~1 400 of a task's 12 500
// keys re-drawn every interval at 1.8 tuples per key with w = 5.
var intervalShapes = []intervalShape{
	{name: "keys1000x40_w1", keys: 1000, touched: 1000, tuples: 40000, window: 1},
	{name: "keys1400of12500x1.8_w5", keys: 12500, touched: 1400, tuples: 2520, window: 5},
}

// draw pre-generates a ring of intervals, each a key sequence of
// sh.tuples adds over sh.touched distinct keys.
func (sh intervalShape) draw(seed int64) [][]tuple.Key {
	const ring = 64
	rng := rand.New(rand.NewSource(seed))
	out := make([][]tuple.Key, ring)
	for i := range out {
		picked := rng.Perm(sh.keys)[:sh.touched]
		ks := make([]tuple.Key, sh.tuples)
		for j := range ks {
			if j < sh.touched {
				ks[j] = tuple.Key(picked[j]) // every drawn key at least once
			} else {
				ks[j] = tuple.Key(picked[rng.Intn(sh.touched)])
			}
		}
		rng.Shuffle(len(ks), func(a, b int) { ks[a], ks[b] = ks[b], ks[a] })
		out[i] = ks
	}
	return out
}

// BenchmarkStoreInterval times whole intervals — every Add of the
// interval, then the close — at steady state (the window is full before
// the timer starts). One op is one interval; the per-tuple Add cost and
// the per-touched-key close cost are reported beside it.
func BenchmarkStoreInterval(b *testing.B) {
	for _, sh := range intervalShapes {
		b.Run(sh.name, func(b *testing.B) {
			ring := sh.draw(1)
			s := NewStore(sh.window)
			run := func(ks []tuple.Key) (add, end time.Duration) {
				t0 := time.Now()
				for _, k := range ks {
					s.Add(k, Entry{Size: 1})
				}
				t1 := time.Now()
				s.EndInterval()
				return t1.Sub(t0), time.Since(t1)
			}
			for i := 0; i < 4*(sh.window+1); i++ {
				run(ring[i%len(ring)])
			}
			var add, end time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, e := run(ring[i%len(ring)])
				add += a
				end += e
			}
			b.ReportMetric(float64(add)/float64(b.N*sh.tuples), "ns/tuple")
			b.ReportMetric(float64(end)/float64(b.N*sh.touched), "ns/closed-key")
		})
	}
}

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
