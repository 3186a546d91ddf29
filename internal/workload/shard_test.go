package workload

import (
	"sync"
	"testing"

	"repro/internal/tuple"
)

// tupleCount is a multiset fingerprint of a tuple draw: everything the
// data plane observes about a tuple except its draw position.
type tupleCount struct {
	key   tuple.Key
	cost  int64
	state int64
}

func countTuples(ts []tuple.Tuple) map[tupleCount]int {
	m := make(map[tupleCount]int)
	for _, t := range ts {
		m[tupleCount{t.Key, t.Cost, t.StateSize}]++
	}
	return m
}

// drainShards pulls n tuples total from the shards with one goroutine
// per shard drawing in chunks, returning each shard's draws.
func drainShards(shards []func([]tuple.Tuple) int, perShard, chunk int) [][]tuple.Tuple {
	out := make([][]tuple.Tuple, len(shards))
	var wg sync.WaitGroup
	for i, sb := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]tuple.Tuple, chunk)
			for got := 0; got < perShard; {
				c := perShard - got
				if c > chunk {
					c = chunk
				}
				n := sb(buf[:c])
				out[i] = append(out[i], buf[:n]...)
				got += n
				if n < c {
					return
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// TestShardUnionMatchesSingleSequence pins the sharder's multiset
// invariant for every generator family: the union of B draws claimed
// across 4 concurrent shards equals the first B draws of an identically
// seeded unsharded generator, and shard draws are disjoint (counts sum
// exactly, nothing duplicated or lost).
func TestShardUnionMatchesSingleSequence(t *testing.T) {
	const total, shards, chunk = 8000, 4, 97
	gens := map[string]struct {
		single func() []func([]tuple.Tuple) int
		shard  func() []func([]tuple.Tuple) int
	}{
		"zipf": {
			single: func() []func([]tuple.Tuple) int { return NewZipfStream(5000, 0.85, 1, 10000, 11).Shard(1) },
			shard:  func() []func([]tuple.Tuple) int { return NewZipfStream(5000, 0.85, 1, 10000, 11).Shard(shards) },
		},
		"social": {
			single: func() []func([]tuple.Tuple) int { return NewSocial(3000, 0.8, 0.01, 12).Shard(1) },
			shard:  func() []func([]tuple.Tuple) int { return NewSocial(3000, 0.8, 0.01, 12).Shard(shards) },
		},
		"stock": {
			single: func() []func([]tuple.Tuple) int { return NewStock(0, 0.8, 13).Shard(1) },
			shard:  func() []func([]tuple.Tuple) int { return NewStock(0, 0.8, 13).Shard(shards) },
		},
		"tpch": {
			single: func() []func([]tuple.Tuple) int { return NewTPCH(DefaultTPCHConfig()).Shard(1) },
			shard:  func() []func([]tuple.Tuple) int { return NewTPCH(DefaultTPCHConfig()).Shard(shards) },
		},
	}
	for name, g := range gens {
		t.Run(name, func(t *testing.T) {
			ref := make([]tuple.Tuple, total)
			if got := g.single()[0](ref); got != total {
				t.Fatalf("single shard drew %d of %d", got, total)
			}
			parts := drainShards(g.shard(), total/shards, chunk)
			var merged []tuple.Tuple
			seqs := make(map[uint64]int)
			for _, p := range parts {
				merged = append(merged, p...)
				for _, tp := range p {
					seqs[tp.Seq]++
				}
			}
			if len(merged) != total {
				t.Fatalf("shards drew %d of %d", len(merged), total)
			}
			// Disjointness: no draw position claimed twice.
			for s, n := range seqs {
				if n != 1 {
					t.Fatalf("seq %d claimed by %d shards", s, n)
				}
			}
			want, got := countTuples(ref), countTuples(merged)
			if len(want) != len(got) {
				t.Fatalf("distinct tuple fingerprints %d ≠ %d", len(got), len(want))
			}
			for tc, n := range want {
				if got[tc] != n {
					t.Fatalf("tuple %+v drawn %d times sharded, %d unsharded", tc, got[tc], n)
				}
			}
		})
	}
}

// TestShardExhaustionLatches verifies a finite source stops every shard
// once exhausted instead of re-entering the drained generator.
func TestShardExhaustionLatches(t *testing.T) {
	remaining := 10
	shards := shardSpouts(3, func(dst []tuple.Tuple) int {
		n := len(dst)
		if n > remaining {
			n = remaining
		}
		remaining -= n
		for i := 0; i < n; i++ {
			dst[i] = tuple.New(tuple.Key(i), nil)
		}
		return n
	})
	buf := make([]tuple.Tuple, 4)
	var total int
	for i := 0; i < 12; i++ {
		total += shards[i%3](buf)
	}
	if total != 10 {
		t.Fatalf("shards drew %d tuples from a 10-tuple source", total)
	}
}
