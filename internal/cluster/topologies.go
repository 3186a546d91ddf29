package cluster

import (
	"repro/internal/engine"
	"repro/internal/state"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The built-in distributed topologies. Operators register under
// namespaced names so worker processes — which only ever see the name
// in a StageAssign — resolve the identical factories the coordinator's
// local reference run uses.

// wordsPerPost is the social parse fan-out: each post carries this many
// topic words drawn from the social feed.
const wordsPerPost = 4

// parseOp splits one post into its words — the key-oblivious stage
// (any instance can parse any post, hence shuffle routing).
type parseOp struct{}

func (parseOp) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	words := t.Value.([]tuple.Key)
	for _, w := range words {
		ctx.Emit(tuple.New(w, nil))
	}
}

// countOp counts words with windowed state and publishes each
// interval's counts downstream as (word, delta) tuples. Deltas — not
// running totals — keep the downstream accumulation exact across
// rebalance migrations: a key lives on exactly one instance per
// interval, so per-interval deltas sum to the true total no matter how
// often the key moves.
type countOp struct {
	interval map[tuple.Key]int64
}

func (c *countOp) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	c.interval[t.Key]++
	ctx.Store.Add(t.Key, state.Entry{Value: int64(1), Size: t.StateSize})
}

func (c *countOp) FlushInterval(ctx *engine.TaskCtx) {
	for k, n := range c.interval {
		ctx.Emit(tuple.New(k, n))
		delete(c.interval, k)
	}
}

// topkOp accumulates the published deltas into authoritative running
// totals. In the distributed runtime the leaderboard stays on the
// hosting worker; the equivalence pin is the stage's arrival accounting
// and state snapshots, which the coordinator harvests.
type topkOp struct {
	totals map[tuple.Key]int64
}

func (o *topkOp) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	n, _ := t.Value.(int64)
	o.totals[t.Key] += n
}

func init() {
	RegisterOp("social/parse", func(int) engine.Operator { return parseOp{} })
	RegisterOp("social/count", func(int) engine.Operator {
		return &countOp{interval: make(map[tuple.Key]int64)}
	})
	RegisterOp("social/topk", func(int) engine.Operator {
		return &topkOp{totals: make(map[tuple.Key]int64)}
	})

	RegisterTopology("socialpipe", func() *Spec {
		gen := workload.NewSocial(30000, 0.85, 0.002, 97)
		var postSeq uint64
		spoutB := func(dst []tuple.Tuple) int {
			for i := range dst {
				words := make([]tuple.Key, wordsPerPost)
				for w := range words {
					words[w] = gen.Next().Key
				}
				postSeq++
				post := tuple.New(tuple.Key(postSeq), words)
				post.Cost = wordsPerPost
				dst[i] = post
			}
			return len(dst)
		}
		return &Spec{
			Name:    "socialpipe",
			Budget:  2500, // 2500 posts → 10000 words per interval
			SpoutB:  spoutB,
			Advance: func(int64) { gen.Advance() },
			Stages: []StageSpec{
				{Name: "parse", Op: "social/parse", Instances: 4,
					Algorithm: topology.AlgIdeal, Capacity: 4000},
				{Name: "count", Op: "social/count", Instances: 10,
					Algorithm: topology.AlgMixed, Theta: 0.02, MinKeys: 64,
					Capacity: 1200, Target: true},
				{Name: "topk", Op: "social/topk", Instances: 2,
					Capacity: 20000},
			},
		}
	})
}
