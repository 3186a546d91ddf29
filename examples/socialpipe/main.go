// Social pipeline: the ROADMAP's 3-stage topology — parse → count →
// top-k — on the declarative builder. Posts fan out through a
// key-oblivious shuffle parse stage into per-word tuples; the count
// stage maintains windowed word frequencies under its own Mixed
// rebalance controller (the skewed, stateful operator the paper's
// scheme exists for); each interval it publishes the touched words'
// count deltas downstream, where a small top-k stage accumulates them
// into the leaderboard. All three stages stream pipelined: top-k sees
// counts from interval i during interval i's cascading close.
//
//	go run ./examples/socialpipe
package main

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/state"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// wordsPerPost is the parse fan-out: each post carries this many topic
// words drawn from the social feed.
const wordsPerPost = 4

// parseOp splits one post into its words — the key-oblivious stage
// (any instance can parse any post, hence shuffle routing).
type parseOp struct{}

func (parseOp) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	words := t.Value.([]tuple.Key)
	for _, w := range words {
		out := tuple.New(w, nil)
		ctx.Emit(out)
	}
}

// countOp counts words with windowed state (so migration has real
// volume) and publishes each interval's counts downstream as
// (word, delta) tuples. Publishing deltas — not instance-local running
// totals — keeps the downstream accumulation exact across rebalance
// migrations: a key lives on exactly one instance per interval, so the
// per-interval deltas sum to the true total no matter how often the
// key moves between instances.
type countOp struct {
	interval map[tuple.Key]int64
}

func newCountOp() *countOp {
	return &countOp{interval: make(map[tuple.Key]int64)}
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
// totals; the leaderboard is read at a barrier.
type topkOp struct {
	totals map[tuple.Key]int64
}

func (o *topkOp) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	n, _ := t.Value.(int64)
	o.totals[t.Key] += n
}

type ranked struct {
	word  tuple.Key
	total int64
}

func main() {
	intervals := topology.Intervals(24)
	gen := workload.NewSocial(30000, 0.85, 0.002, 97)

	// The spout emits posts: Value carries the words, Cost the parse
	// work (one unit per word).
	var postSeq uint64
	spout := func() tuple.Tuple {
		words := make([]tuple.Key, wordsPerPost)
		for i := range words {
			words[i] = gen.Next().Key
		}
		postSeq++
		post := tuple.New(tuple.Key(postSeq), words)
		post.Cost = wordsPerPost
		return post
	}

	topks := make(map[int]*topkOp)
	sys := topology.New(
		topology.Spout(spout),
		topology.Budget(2500), // 2500 posts → 10000 words per interval
		topology.AdvanceEach(func(int64) { gen.Advance() }),
	).Stage("parse", func(int) engine.Operator { return parseOp{} },
		topology.Instances(4),
		topology.WithAlgorithm(topology.AlgIdeal), // posts are key-oblivious: shuffle
		topology.Capacity(4000),
	).Stage("count", func(int) engine.Operator { return newCountOp() },
		topology.Instances(10),
		topology.WithAlgorithm(topology.AlgMixed), // the stage's own controller
		topology.Theta(0.02), topology.MinKeys(64),
		topology.Capacity(1200),
		topology.Target(),
	).Stage("topk", func(id int) engine.Operator {
		op := &topkOp{totals: make(map[tuple.Key]int64)}
		topks[id] = op
		return op
	},
		topology.Instances(2),
		topology.Capacity(20000),
	).Build()
	defer sys.Stop()

	fmt.Printf("social pipeline: parse(4, shuffle) -> count(10, mixed th=0.02) -> topk(2), %d intervals\n\n", intervals)
	sys.Run(intervals)

	count := sys.StageNamed("count")
	fmt.Printf("count-stage rebalances: %d, final routing-table size: %d\n",
		sys.ControllerNamed("count").Rebalances(),
		count.AssignmentRouter().Assignment().Table().Len())
	mean := 0.0
	for _, m := range sys.Recorder().Series {
		mean += m.Throughput
	}
	fmt.Printf("mean count-stage throughput: %.0f words/s\n\n", mean/float64(intervals))

	// Merge the per-instance leaderboards (words are key-partitioned
	// across the two top-k instances, so the union is the global view).
	sys.StageNamed("topk").Barrier()
	var all []ranked
	for _, op := range topks {
		for w, n := range op.totals {
			all = append(all, ranked{w, n})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].total != all[j].total {
			return all[i].total > all[j].total
		}
		return all[i].word < all[j].word
	})
	fmt.Println("top 10 topics (word key, running total):")
	for i := 0; i < 10 && i < len(all); i++ {
		fmt.Printf("%8d  %8d\n", all[i].word, all[i].total)
	}
}
