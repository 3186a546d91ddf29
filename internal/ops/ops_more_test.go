package ops

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/state"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Second round of operator coverage.

func TestPartialCountPublishesOncePerKeyPerInterval(t *testing.T) {
	parts := NewPartialCountFleet()
	st := engine.NewStage("partial", 1, parts.Factory, 1,
		engine.NewPKGRouter(1))
	defer st.Stop()
	var sink captureSink
	st.SetSink(&sink)
	for i := 0; i < 100; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(tuple.Key(i%4), nil)})
	}
	st.CloseInterval()
	out := sink.take()
	if len(out) != 4 {
		t.Fatalf("flush emitted %d partials, want 4 (one per key)", len(out))
	}
	var total int64
	for _, o := range out {
		v, ok := o.Value.(int64)
		if !ok {
			t.Fatalf("partial value has type %T", o.Value)
		}
		total += v
	}
	if total != 100 {
		t.Fatalf("partials sum to %d, want 100", total)
	}
	if parts.Instances[0].Published != 4 {
		t.Fatalf("Published = %d", parts.Instances[0].Published)
	}
	// Second flush with no new tuples publishes nothing.
	st.CloseInterval()
	if extra := sink.take(); len(extra) != 0 {
		t.Fatalf("idle flush emitted %d partials", len(extra))
	}
}

func TestMergeCountIgnoresForeignValues(t *testing.T) {
	m := NewMergeCount()
	ctx := &engine.TaskCtx{}
	m.Process(ctx, tuple.New(1, "not-a-count"))
	m.FlushInterval(ctx)
	if got := m.M.Result(1); got != 0 {
		t.Fatalf("foreign value merged as %d", got)
	}
}

func TestNationRevenueIgnoresForeignValues(t *testing.T) {
	n := NewNationRevenue()
	n.Process(&engine.TaskCtx{}, tuple.New(1, "oops"))
	if n.Revenue[1] != 0 {
		t.Fatal("non-float value accumulated")
	}
}

func TestWordCountFleetTotalsAcrossInstances(t *testing.T) {
	f := NewWordCountFleet()
	a := f.Factory(0).(*WordCount)
	b := f.Factory(1).(*WordCount)
	ctx := &engine.TaskCtx{Store: state.NewStore(1)}
	// Fleet totals must survive a key being counted on two instances
	// over its lifetime (pre- and post-migration owners).
	stub := tuple.New(5, "w")
	a.Process(ctx, stub)
	b.Process(ctx, stub)
	if f.TotalCount(5) != 2 {
		t.Fatalf("TotalCount = %d", f.TotalCount(5))
	}
}

func TestSelfJoinStateSizeTracksTrades(t *testing.T) {
	fleet := NewSelfJoinFleet(false)
	st := engine.NewStage("join", 1, fleet.Factory, 2, asgRouter(1))
	defer st.Stop()
	for i := 0; i < 7; i++ {
		st.FeedBatch([]tuple.Tuple{tuple.New(3, i).WithState(2)})
	}
	st.Barrier()
	if got := st.StoreOf(0).Size(3); got != 14 {
		t.Fatalf("join window size = %d, want 14", got)
	}
}

func TestQ5JoinBuffersBothStreams(t *testing.T) {
	cfg := workload.DefaultTPCHConfig()
	cfg.Customers, cfg.Suppliers, cfg.OrderPool = 100, 20, 50
	gen := workload.NewTPCH(cfg)
	j := NewQ5Join(gen, 0)
	st := engine.NewStage("q5", 1, func(int) engine.Operator { return j }, 2, asgRouter(1))
	defer st.Stop()

	st.FeedBatch([]tuple.Tuple{tuple.New(1, workload.Order{OrderKey: 1, CustKey: 1})})
	st.FeedBatch([]tuple.Tuple{tuple.New(1, workload.Lineitem{OrderKey: 1, SuppKey: 1, ExtendedPrice: 100})})
	st.Barrier()
	// Both rows buffered under orderkey 1.
	if got := st.StoreOf(0).Size(1); got == 0 {
		t.Fatal("join buffered nothing")
	}
	// Whether the pair joined depends on the region filter; emitting a
	// second matching lineitem must probe the buffered order either way.
	st.FeedBatch([]tuple.Tuple{tuple.New(1, workload.Lineitem{OrderKey: 1, SuppKey: 2, ExtendedPrice: 50})})
	st.Barrier()
	entries := st.StoreOf(0).Entries(1)
	if len(entries) != 3 {
		t.Fatalf("window holds %d rows, want 3", len(entries))
	}
}
