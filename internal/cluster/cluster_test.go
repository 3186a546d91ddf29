package cluster

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/control"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
)

// scriptedResize is a coordinator-side policy driving live elasticity
// mid-run: scale-out at one interval, scale-in at a later one. The
// same value runs in the single-process reference (via
// StageSpec.Policies → topology.WithPolicy), so both runs issue the
// identical command sequence.
type scriptedResize struct {
	outAt, inAt int64
}

func (p scriptedResize) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	if !env.Resizable {
		return nil
	}
	switch env.Interval {
	case p.outAt:
		return []control.Command{control.ScaleOut{}}
	case p.inAt:
		return []control.Command{control.ScaleIn{}}
	}
	return nil
}

// testSpec returns a fresh socialpipe spec with the scripted
// elasticity attached to the count stage. Fresh per call: the
// generator state lives in the Spec's closures.
func testSpec(t *testing.T) *Spec {
	spec, err := LookupTopology("socialpipe")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	spec.Stages[1].Policies = []control.Policy{scriptedResize{outAt: 5, inAt: 11}}
	return spec
}

const testIntervals = 16

// distributedRun is everything a distributed socialpipe run leaves
// behind, captured before shutdown.
type distributedRun struct {
	series     []metrics.Interval
	snaps      []*stats.Snapshot // count-stage wire snapshots, one per round
	rebalances int
	table      map[tuple.Key]int
	stores     []storeSnap
	processed  []int64
	stats      []string // byte-table connection names
}

type storeSnap struct {
	total int64
	keys  int
}

// runDistributed stands up nWorkers in-process workers over real
// sockets, deploys the socialpipe spec, drives testIntervals
// intervals and captures every observable the equivalence is pinned
// on.
func runDistributed(t *testing.T, network string, nWorkers int, mutate ...func(*Spec)) *distributedRun {
	t.Helper()
	spec := testSpec(t)
	for _, m := range mutate {
		m(spec)
	}
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "coord.sock")
	}
	c, err := NewCoordinator(spec, network, addr)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	var mu sync.Mutex
	var snaps []*stats.Snapshot
	c.OnRound(1, func(env control.Env, snap *stats.Snapshot) {
		mu.Lock()
		// A copy: the round's keys live in a buffer the codec recycles.
		snaps = append(snaps, snap.Clone())
		mu.Unlock()
	})

	workers := make([]*Worker, nWorkers)
	errs := make(chan error, nWorkers)
	for i := range workers {
		dataAddr := "127.0.0.1:0"
		if network == "unix" {
			dataAddr = filepath.Join(t.TempDir(), fmt.Sprintf("w%d.sock", i))
		}
		w, err := NewWorker(network, c.Addr(), dataAddr, fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		workers[i] = w
		go func() { errs <- w.Run() }()
	}

	if err := c.Deploy(nWorkers); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := c.Run(testIntervals); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Capture worker-side state while the stages are still alive.
	r := &distributedRun{rebalances: c.Rebalances()}
	r.series = append(r.series, c.Recorder().Series...)
	countStage := workers[c.Placement()[1]].Stage(1)
	if countStage == nil {
		t.Fatal("count stage not hosted where placement says")
	}
	r.table = map[tuple.Key]int{}
	countStage.AssignmentRouter().Assignment().Table().Each(func(k tuple.Key, d int) { r.table[k] = d })
	for d := 0; d < countStage.Instances(); d++ {
		st := countStage.StoreOf(d)
		r.stores = append(r.stores, storeSnap{total: st.TotalSize(), keys: st.KeyCount()})
	}
	if errs := countStage.StateWireErrs(); errs != 0 {
		t.Fatalf("state codec errors on count stage: %d", errs)
	}
	for si := range spec.Stages {
		r.processed = append(r.processed, c.Processed(si))
	}

	all, err := c.Shutdown()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, s := range all {
		for _, cs := range s.Conns {
			r.stats = append(r.stats, fmt.Sprintf("%s/%s", s.Worker, cs.Name))
			if cs.Sent == 0 && cs.Rcvd == 0 {
				t.Errorf("connection %s %s moved no bytes", s.Worker, cs.Name)
			}
		}
	}
	for i := range workers {
		if err := <-errs; err != nil {
			t.Fatalf("worker %d exited: %v", i, err)
		}
	}

	mu.Lock()
	r.snaps = snaps
	mu.Unlock()
	return r
}

// runLocal is the pinned single-process reference: the same Spec
// through topology.Build, with count-stage snapshots captured at the
// same post-round point.
func runLocal(t *testing.T, mutate ...func(*Spec)) *distributedRun {
	t.Helper()
	spec := testSpec(t)
	for _, m := range mutate {
		m(spec)
	}
	sys := spec.BuildLocal()
	defer sys.Stop()

	var snaps []*stats.Snapshot
	sys.Engine.AddSnapshotHook(1, func(e *engine.Engine, si int, snap *stats.Snapshot) *engine.Rebalance {
		cp := &stats.Snapshot{Interval: snap.Interval, ND: snap.ND, Keys: append([]stats.KeyStat(nil), snap.Keys...)}
		snaps = append(snaps, cp)
		return nil
	})

	sys.Run(testIntervals)

	r := &distributedRun{rebalances: sys.Rebalances(), snaps: snaps}
	r.series = append(r.series, sys.Recorder().Series...)
	count := sys.StageNamed("count")
	r.table = map[tuple.Key]int{}
	count.AssignmentRouter().Assignment().Table().Each(func(k tuple.Key, d int) { r.table[k] = d })
	for d := 0; d < count.Instances(); d++ {
		st := count.StoreOf(d)
		r.stores = append(r.stores, storeSnap{total: st.TotalSize(), keys: st.KeyCount()})
	}
	return r
}

// sortedKeys returns the snapshot's key stats sorted by key —
// the wire reassembly and the engine harvest may order entries
// differently; the multiset is what both runs must agree on.
func sortedKeys(s *stats.Snapshot) []stats.KeyStat {
	ks := append([]stats.KeyStat(nil), s.Keys...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].Key < ks[j].Key })
	return ks
}

func compareRuns(t *testing.T, name string, got, want *distributedRun) {
	t.Helper()

	// Interval series, PlanMs stripped (wall-clock plan generation).
	if len(got.series) != len(want.series) {
		t.Fatalf("%s: %d series rows, want %d", name, len(got.series), len(want.series))
	}
	for i := range want.series {
		g, w := got.series[i], want.series[i]
		g.PlanMs, w.PlanMs = 0, 0
		if g != w {
			t.Errorf("%s: series[%d]:\n got %+v\nwant %+v", name, i, g, w)
		}
	}

	// Control-round snapshots for the count stage, entry-wise.
	if len(got.snaps) != len(want.snaps) {
		t.Fatalf("%s: %d count-stage rounds, want %d", name, len(got.snaps), len(want.snaps))
	}
	for i := range want.snaps {
		g, w := got.snaps[i], want.snaps[i]
		if g.Interval != w.Interval || g.ND != w.ND {
			t.Fatalf("%s: round %d header: got (%d,%d), want (%d,%d)", name, i, g.Interval, g.ND, w.Interval, w.ND)
		}
		gk, wk := sortedKeys(g), sortedKeys(w)
		if len(gk) != len(wk) {
			t.Fatalf("%s: round %d: %d keys, want %d", name, i, len(gk), len(wk))
		}
		for j := range wk {
			if gk[j] != wk[j] {
				t.Fatalf("%s: round %d key %d: got %+v, want %+v", name, i, j, gk[j], wk[j])
			}
		}
	}

	if got.rebalances != want.rebalances {
		t.Errorf("%s: %d rebalances, want %d", name, got.rebalances, want.rebalances)
	}

	// Final routing table and per-instance stores.
	if len(got.table) != len(want.table) {
		t.Errorf("%s: routing table has %d entries, want %d", name, len(got.table), len(want.table))
	}
	for k, d := range want.table {
		if gd, ok := got.table[k]; !ok || gd != d {
			t.Errorf("%s: table[%v] = %v (present %v), want %v", name, k, gd, ok, d)
			break
		}
	}
	if len(got.stores) != len(want.stores) {
		t.Fatalf("%s: %d store instances, want %d", name, len(got.stores), len(want.stores))
	}
	for d := range want.stores {
		if got.stores[d] != want.stores[d] {
			t.Errorf("%s: store[%d] = %+v, want %+v", name, d, got.stores[d], want.stores[d])
		}
	}
}

// assertNonVacuous proves the run exercised what the PR claims: live
// rebalances and live resizes actually happened over the sockets.
func assertNonVacuous(t *testing.T, r *distributedRun) {
	t.Helper()
	if r.rebalances == 0 {
		t.Error("no rebalances applied: equivalence is vacuous")
	}
	var outs, ins int
	for _, m := range r.series {
		outs += m.ScaleOuts
		ins += m.ScaleIns
	}
	if outs != 1 || ins != 1 {
		t.Errorf("scripted elasticity: %d scale-outs, %d scale-ins, want 1 and 1", outs, ins)
	}
	var emitted int64
	for _, m := range r.series {
		emitted += m.Emitted
	}
	if len(r.processed) > 0 {
		// Zero loss: stage 0 saw every emitted post, stage 1 every word.
		if r.processed[0] != emitted {
			t.Errorf("parse stage processed %d tuples, emitted %d", r.processed[0], emitted)
		}
		if r.processed[1] != emitted*wordsPerPost {
			t.Errorf("count stage processed %d tuples, want %d", r.processed[1], emitted*wordsPerPost)
		}
		if r.processed[2] == 0 {
			t.Error("topk stage processed no tuples")
		}
	}
}

// TestDistributedMatchesLocal is the tentpole pin: the socialpipe
// topology across 3 worker processes (real sockets, serialized state,
// live rebalance + scale-out + scale-in mid-run) is bit-identical to
// the single-process engine — series, control-round snapshots, routing
// tables, per-instance stores — with zero tuple loss.
func TestDistributedMatchesLocal(t *testing.T) {
	local := runLocal(t)
	assertNonVacuous(t, local)
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			dist := runDistributed(t, network, 3)
			assertNonVacuous(t, dist)
			compareRuns(t, network, dist, local)
		})
	}
}

// TestDistributedWorkerCounts pins the placement invariance: any
// worker count yields the same run — stages just co-locate.
func TestDistributedWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	local := runLocal(t)
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			dist := runDistributed(t, "unix", n)
			compareRuns(t, fmt.Sprintf("n=%d", n), dist, local)
		})
	}
}

// TestSpecResolveMatchesTopologyDefaults guards the dual derivation:
// the Spec's resolved defaults must equal what topology.Build would
// apply, or the workers' stages drift from the reference.
func TestSpecResolveMatchesTopologyDefaults(t *testing.T) {
	s := &Spec{
		Name:   "t",
		SpoutB: func(dst []tuple.Tuple) int { return 0 },
		Stages: []StageSpec{{Name: "a", Op: "social/parse"}},
	}
	target := s.resolve()
	if target != 0 {
		t.Fatalf("target = %d", target)
	}
	st := s.Stages[0]
	if st.Instances != topology.DefInstances || st.Window != topology.DefWindow ||
		st.Theta != topology.DefTheta || st.TableMax != topology.DefTableMax {
		t.Fatalf("resolved stage = %+v, want topology defaults", st)
	}
	if s.Budget != topology.DefBudget {
		t.Fatalf("budget = %d, want %d", s.Budget, topology.DefBudget)
	}
	if st.Capacity != s.Budget/int64(st.Instances) {
		t.Fatalf("capacity = %d", st.Capacity)
	}
}

// TestDownstreamThrottleMatchesLocal pins backpressure driven by a stage
// other than the target across the wire: with the topk stage
// under-provisioned, its backlog — shipped by the worker hosting it —
// throttles the spout, and the series still matches the single-process
// engine row for row.
func TestDownstreamThrottleMatchesLocal(t *testing.T) {
	// At 1000 the throttle lands between the budget and its 10% floor
	// (the default capacity never throttles this pipeline).
	starve := func(s *Spec) { s.Stages[2].Capacity = 1000 }
	local := runLocal(t, starve)
	budget := testSpec(t).Budget
	throttled := false
	for _, m := range local.series {
		if m.Emitted < budget {
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("no interval emitted below the budget: the throttle case is vacuous")
	}
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			dist := runDistributed(t, network, 3, starve)
			compareRuns(t, network, dist, local)
		})
	}
}

// TestCoordinatorRefusesPKG pins the supported subset: a PKG stage's
// capacity shave and latency floor exist only in the builder, so the
// coordinator refuses the spec, naming the stage, instead of silently
// diverging from BuildLocal.
func TestCoordinatorRefusesPKG(t *testing.T) {
	spec := testSpec(t)
	spec.Stages[1].Algorithm = topology.AlgPKG
	c, err := NewCoordinator(spec, "unix", filepath.Join(t.TempDir(), "coord.sock"))
	if err == nil {
		c.Shutdown()
		t.Fatal("coordinator accepted a PKG stage")
	}
	if !strings.Contains(err.Error(), `"count"`) || !strings.Contains(err.Error(), string(topology.AlgPKG)) {
		t.Fatalf("error %q does not name the stage and its algorithm", err)
	}
}
