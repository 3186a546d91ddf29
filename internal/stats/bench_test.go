package stats

import (
	"math/rand"
	"testing"
	"time"

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

func BenchmarkTrackerObserve(b *testing.B) {
	tr := NewTracker(1)
	ts := benchTuples(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(ts[i%len(ts)])
	}
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

// trackerShape is one task's share of a BENCHMARK.json workload (the
// same two shapes state.BenchmarkStoreInterval uses): each interval
// observes `tuples` unit tuples over `touched` keys drawn from `keys`.
type trackerShape struct {
	name                  string
	keys, touched, tuples int
	window                int
}

var trackerShapes = []trackerShape{
	{name: "keys1000x40_w1", keys: 1000, touched: 1000, tuples: 40000, window: 1},
	{name: "keys1400of12500x1.8_w5", keys: 12500, touched: 1400, tuples: 2520, window: 5},
}

func (sh trackerShape) draw(seed int64) [][]tuple.Tuple {
	const ring = 64
	rng := rand.New(rand.NewSource(seed))
	out := make([][]tuple.Tuple, ring)
	for i := range out {
		picked := rng.Perm(sh.keys)[:sh.touched]
		ts := make([]tuple.Tuple, sh.tuples)
		for j := range ts {
			k := picked[j%sh.touched] // every drawn key at least once
			if j >= sh.touched {
				k = picked[rng.Intn(sh.touched)]
			}
			ts[j] = tuple.New(tuple.Key(k), nil)
		}
		rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
		out[i] = ts
	}
	return out
}

// BenchmarkTrackerInterval times whole intervals — one ObserveBatch per
// engine-sized chunk, then the close that rolls the window and reports
// the touched keys — at steady state. One op is one interval; the
// per-tuple observe cost and the per-touched-key close cost are
// reported beside it.
func BenchmarkTrackerInterval(b *testing.B) {
	const chunk = 256
	for _, sh := range trackerShapes {
		b.Run(sh.name, func(b *testing.B) {
			ring := sh.draw(1)
			tr := NewTracker(sh.window)
			run := func(ts []tuple.Tuple) (obs, end time.Duration) {
				t0 := time.Now()
				for lo := 0; lo < len(ts); lo += chunk {
					tr.ObserveBatch(ts[lo:min(lo+chunk, len(ts))])
				}
				t1 := time.Now()
				tr.EndInterval()
				return t1.Sub(t0), time.Since(t1)
			}
			for i := 0; i < 4*(sh.window+1); i++ {
				run(ring[i%len(ring)])
			}
			var obs, end time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, e := run(ring[i%len(ring)])
				obs += o
				end += e
			}
			b.ReportMetric(float64(obs)/float64(b.N*sh.tuples), "ns/tuple")
			b.ReportMetric(float64(end)/float64(b.N*sh.touched), "ns/closed-key")
		})
	}
}
