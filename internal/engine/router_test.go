package engine

import (
	"testing"

	"repro/internal/pkgpart"
	"repro/internal/tuple"
)

func TestRouterInstanceCounts(t *testing.T) {
	if got := newAsgRouter(7).Instances(); got != 7 {
		t.Fatalf("AssignmentRouter.Instances = %d", got)
	}
	if got := (PKGRouter{R: pkgpart.NewRouter(5)}).Instances(); got != 5 {
		t.Fatalf("PKGRouter.Instances = %d", got)
	}
	if got := NewShuffleRouter(3).Instances(); got != 3 {
		t.Fatalf("ShuffleRouter.Instances = %d", got)
	}
}

func TestShuffleRouterStartsAtZero(t *testing.T) {
	// Round-robin must begin at instance 0 and wrap exactly: the old
	// post-increment routing started at 1, shorting instance 0 on the
	// first wrap.
	r := NewShuffleRouter(3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := r.Route(tuple.New(tuple.Key(i), nil)); got != w {
			t.Fatalf("shuffle draw %d routed to %d, want %d (sequence %v)", i, got, w, want)
		}
	}
}

func TestPKGRouterRoutesWithinRange(t *testing.T) {
	r := PKGRouter{R: pkgpart.NewRouter(4)}
	for i := 0; i < 200; i++ {
		d := r.Route(tuple.New(tuple.Key(i%9), nil))
		if d < 0 || d >= 4 {
			t.Fatalf("PKG routed to %d", d)
		}
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
