package ops

import (
	"sync"
	"testing"

	"repro/internal/balance"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/hashring"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

func asgRouter(nd int) *engine.AssignmentRouter {
	return engine.NewAssignmentRouter(route.NewAssignment(route.NewTable(), hashring.New(nd, 0)))
}

// captureSink collects what a stage emits, for tests that read an
// operator's output directly; take hands it over and starts afresh.
type captureSink struct {
	mu  sync.Mutex
	got []tuple.Tuple
}

func (c *captureSink) FeedBatch(ts []tuple.Tuple) {
	c.mu.Lock()
	c.got = append(c.got, ts...)
	c.mu.Unlock()
}

func (c *captureSink) take() []tuple.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.got
	c.got = nil
	return out
}

// directHook is the controller on the stage itself, no protocol: the
// reference path the control loop is pinned against, here so operator
// tests can rebalance a hand-wired engine.
func directHook(ctl *controller.Controller) engine.SnapshotHook {
	return func(e *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
		return ctl.Maybe(e.Stages[si], snap)
	}
}

func TestWordCountCountsPerKey(t *testing.T) {
	fleet := NewWordCountFleet()
	st := engine.NewStage("wc", 2, fleet.Factory, 1, asgRouter(2))
	defer st.Stop()
	for i := 0; i < 90; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(i%3), "w")})
	}
	st.Barrier()
	for k := tuple.Key(0); k < 3; k++ {
		if got := fleet.TotalCount(k); got != 30 {
			t.Fatalf("count(%d) = %d, want 30", k, got)
		}
	}
}

func TestWordCountCorrectAcrossMigration(t *testing.T) {
	fleet := NewWordCountFleet()
	st := engine.NewStage("wc", 2, fleet.Factory, 2, asgRouter(2))
	defer st.Stop()
	hot := tuple.Key(5)
	for i := 0; i < 100; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(hot, "w")})
	}
	st.Barrier()
	st.EndInterval(0)
	// Force-migrate the hot key to the other instance.
	src := st.AssignmentRouter().Assignment().Dest(hot)
	dst := 1 - src
	tab := route.NewTable()
	tab.Put(hot, dst)
	st.ApplyPlan(&balance.Plan{Table: tab, Moved: []tuple.Key{hot}, MoveDest: map[tuple.Key]int{hot: dst}})
	for i := 0; i < 50; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(hot, "w")})
	}
	st.Barrier()
	if got := fleet.TotalCount(hot); got != 150 {
		t.Fatalf("total across migration = %d, want 150", got)
	}
	// Windowed state followed the key.
	if st.StoreOf(src).TotalSize() != 0 {
		t.Fatal("state left behind on source")
	}
	if got := st.StoreOf(dst).TotalSize(); got != 150 {
		t.Fatalf("dest window = %d, want 150", got)
	}
}

func TestSelfJoinMatchCount(t *testing.T) {
	// n tuples of one key in a window produce n(n−1)/2 pairs.
	fleet := NewSelfJoinFleet(false)
	st := engine.NewStage("join", 1, fleet.Factory, 3, asgRouter(1))
	defer st.Stop()
	for i := 0; i < 10; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(1, i)})
	}
	st.Barrier()
	if got := fleet.TotalMatches(); got != 45 {
		t.Fatalf("matches = %d, want 45", got)
	}
}

func TestSelfJoinWindowLimitsMatches(t *testing.T) {
	fleet := NewSelfJoinFleet(false)
	st := engine.NewStage("join", 1, fleet.Factory, 1, asgRouter(1))
	defer st.Stop()
	st.FeedBatch([]tuple.Tuple{tuple.New(1, "a")})
	st.Barrier()
	st.EndInterval(0)
	st.EndInterval(1) // the first tuple falls out of the w=1 window
	st.FeedBatch([]tuple.Tuple{tuple.New(1, "b")})
	st.Barrier()
	if got := fleet.TotalMatches(); got != 0 {
		t.Fatalf("matches across expired window = %d, want 0", got)
	}
}

func TestSelfJoinEmitsPairs(t *testing.T) {
	fleet := NewSelfJoinFleet(true)
	st := engine.NewStage("join", 1, fleet.Factory, 2, asgRouter(1))
	defer st.Stop()
	var sink captureSink
	st.SetSink(&sink)
	st.FeedBatch([]tuple.Tuple{tuple.New(1, "a")})
	st.FeedBatch([]tuple.Tuple{tuple.New(1, "b")})
	st.FeedBatch([]tuple.Tuple{tuple.New(1, "c")})
	st.CloseInterval()
	out := sink.take()
	if len(out) != 3 { // 0 + 1 + 2
		t.Fatalf("emitted %d join tuples, want 3", len(out))
	}
}

func TestPKGPartialMergePipelineCorrectness(t *testing.T) {
	// Split-key counting: upstream PKG router splits keys, partial
	// counts flush per interval, merge stage recombines — totals must
	// equal key grouping's.
	parts := NewPartialCountFleet()
	merges := NewMergeCountFleet()
	s0 := engine.NewStage("partial", 3, parts.Factory, 1,
		engine.NewPKGRouter(3))
	s1 := engine.NewStage("merge", 2, merges.Factory, 1, asgRouter(2))
	var n uint64
	e := engine.NewBatch(engine.BatchSpout(func() tuple.Tuple {
		n++
		return tuple.New(tuple.Key(n%7), nil)
	}), engine.Config{Budget: 700, MaxPendingFactor: 2, MigrationFactor: 1}, s0, s1)
	defer e.Stop()
	e.Run(3)
	for k := tuple.Key(0); k < 7; k++ {
		if got := merges.TotalCount(k); got != 300 {
			t.Fatalf("merged count(%d) = %d, want 300", k, got)
		}
	}
	// The hot-key split actually happened: a key counted on two partial
	// instances in one interval publishes two partials, so the fleet
	// publishes more than one partial per key per interval.
	var published int64
	for _, op := range parts.Instances {
		published += op.Published
	}
	if published <= 7*3 {
		t.Fatalf("%d partials over 3 intervals of 7 keys: no key was split", published)
	}
}

func TestQ5PipelineProducesRevenue(t *testing.T) {
	cfg := workload.DefaultTPCHConfig()
	cfg.Customers, cfg.Suppliers, cfg.OrderPool = 2000, 200, 1000
	gen := workload.NewTPCH(cfg)
	region := 2 // ASIA
	joins := NewQ5JoinFleet(gen, region)
	aggs := NewNationRevenueFleet()
	s0 := engine.NewStage("q5join", 4, joins.Factory, 2, asgRouter(4))
	s1 := engine.NewStage("q5agg", 2, aggs.Factory, 2, asgRouter(2))
	e := engine.NewBatch(engine.BatchSpout(gen.Next), engine.Config{Budget: 20000, MaxPendingFactor: 2, MigrationFactor: 1}, s0, s1)
	defer e.Stop()
	e.Run(3)
	if joins.TotalJoined() == 0 {
		t.Fatal("Q5 join produced no results")
	}
	var rev float64
	for n := 0; n < len(workload.Regions)*workload.NationsPerRegion; n++ {
		r := aggs.TotalRevenue(n)
		if r > 0 && workload.RegionOfNation(n) != region {
			t.Fatalf("revenue booked for nation %d outside region %d", n, region)
		}
		rev += r
	}
	if rev <= 0 {
		t.Fatal("no revenue aggregated")
	}
}

func TestQ5JoinRegionFilter(t *testing.T) {
	cfg := workload.DefaultTPCHConfig()
	cfg.Customers, cfg.Suppliers, cfg.OrderPool = 500, 100, 200
	gen := workload.NewTPCH(cfg)
	joins := NewQ5JoinFleet(gen, 0)
	st := engine.NewStage("q5", 1, joins.Factory, 2, asgRouter(1))
	defer st.Stop()
	var sink captureSink
	st.SetSink(&sink)
	for i := 0; i < 5000; i++ {
		st.FeedBatch([]tuple.Tuple{gen.Next()})
	}
	st.CloseInterval()
	for _, o := range sink.take() {
		nation := int(o.Key)
		if workload.RegionOfNation(nation) != 0 {
			t.Fatalf("join emitted nation %d outside region 0", nation)
		}
	}
}

func TestQ5RebalanceKeepsResultsFlowing(t *testing.T) {
	// Run the Q5 join stage under the Mixed controller; joins must keep
	// accumulating after rebalances (states moved correctly).
	cfg := workload.DefaultTPCHConfig()
	cfg.Customers, cfg.Suppliers, cfg.OrderPool = 2000, 200, 500
	gen := workload.NewTPCH(cfg)
	joins := NewQ5JoinFleet(gen, 2)
	s0 := engine.NewStage("q5join", 4, joins.Factory, 2, asgRouter(4))
	e := engine.NewBatch(engine.BatchSpout(gen.Next), engine.Config{Budget: 10000, MaxPendingFactor: 2, MigrationFactor: 1}, s0)
	defer e.Stop()
	ctl := controller.New(balance.Mixed{}, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})
	e.AddSnapshotHook(0, directHook(ctl))
	e.AdvanceWorkload = func(int64) { gen.Advance() }
	e.Run(6)
	if ctl.Rebalances() == 0 {
		t.Fatal("skewed FKs never triggered a rebalance")
	}
	before := joins.TotalJoined()
	e.Run(2)
	if joins.TotalJoined() <= before {
		t.Fatal("join results stopped after rebalance")
	}
}
