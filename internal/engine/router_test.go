package engine

import (
	"slices"
	"testing"

	"repro/internal/pkgpart"
	"repro/internal/tuple"
)

func TestShuffleRouterStartsAtZero(t *testing.T) {
	// Round-robin must begin at instance 0 and wrap exactly: the old
	// post-increment routing started at 1, shorting instance 0 on the
	// first wrap. One tuple per batch and one batch of all give the
	// same sequence.
	want := []int{0, 1, 2, 0, 1, 2, 0}
	ts := make([]tuple.Tuple, len(want))
	r := NewShuffleRouter(3)
	got := make([]int, len(want))
	for i := range ts {
		r.dests(nil, ts[i:i+1], got[i:i+1])
	}
	whole := make([]int, len(want))
	NewShuffleRouter(3).dests(nil, ts, whole)
	if !slices.Equal(got, want) || !slices.Equal(whole, want) {
		t.Fatalf("shuffle sequence %v one by one, %v in one batch, want %v", got, whole, want)
	}
}

func TestPKGRouterRoutesWithinRange(t *testing.T) {
	// Every tuple goes to one of its key's two candidates, and each
	// sender routes on its own estimate: two ports fed the same batch
	// make the same decisions.
	r := NewPKGRouter(4)
	ts := make([]tuple.Tuple, 200)
	for i := range ts {
		ts[i] = tuple.New(tuple.Key(i%9), nil)
	}
	a, b := make([]int, len(ts)), make([]int, len(ts))
	r.dests(&Port{}, ts, a)
	r.dests(&Port{}, ts, b)
	cand := pkgpart.NewRouter(4)
	for i, tp := range ts {
		if d1, d2 := cand.Candidates(tp.Key); a[i] != d1 && a[i] != d2 {
			t.Fatalf("key %d routed to %d, candidates %d/%d", tp.Key, a[i], d1, d2)
		}
	}
	if !slices.Equal(a, b) {
		t.Fatal("two fresh senders routed the same batch differently")
	}
}

func TestStageRouterAccessor(t *testing.T) {
	r := NewShuffleRouter(2)
	st := NewStage("s", 2, func(int) Operator { return Discard }, 1, r)
	defer st.Stop()
	if st.Router() != Router(r) {
		t.Fatal("Router accessor returned a different router")
	}
	if st.AssignmentRouter() != nil {
		t.Fatal("shuffle stage claims an assignment router")
	}
}

func TestEngineScaleOutTarget(t *testing.T) {
	st := statefulStage(3, 1)
	cfg := DefaultConfig()
	cfg.Budget = 3000
	var n uint64
	e := New(func() tuple.Tuple {
		n++
		return tuple.New(tuple.Key(n%200), nil)
	}, cfg, st)
	defer e.Stop()
	e.Run(2)
	moved, err := e.ResizeStage(e.Target, +1, nil)
	if err != nil {
		t.Fatalf("ResizeStage(Target, +1): %v", err)
	}
	if st.Instances() != 4 {
		t.Fatalf("instances = %d", st.Instances())
	}
	if moved == 0 {
		t.Fatal("no state moved on engine-level scale-out")
	}
	// The model keeps working at the new width.
	e.Run(2)
	if e.Recorder.Len() != 4 {
		t.Fatalf("recorded %d intervals", e.Recorder.Len())
	}
}
