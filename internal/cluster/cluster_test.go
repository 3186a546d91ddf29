package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/state"
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

// roundLog is the count stage's last policy: each round it records the
// snapshot the stage's policies decided on and the split set its Env
// carried, what the controller planned around. Policies run where the
// stage is planned — on a cluster's coordinator — so both runs record
// at the same post-round point.
type roundLog struct{ r *distributedRun }

func (l roundLog) Decide(env control.Env, snap *stats.Snapshot) []control.Command {
	// A copy: the round's keys live in a buffer the next close recycles.
	l.r.snaps = append(l.r.snaps, snap.Clone())
	l.r.splitEnv = append(l.r.splitEnv, append([]control.SplitSpec(nil), env.Split...))
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
	planner    string                // the count stage controller's planner, if any
	splitEnv   [][]control.SplitSpec // the split set each count-stage round's Env carried
	held       int                   // its intervals held around the split (HeldSplit)
	pinned     int                   // its plan moves of split keys stripped (SplitPinned)
	splits     int                   // split-set changes the count stage's splitter announced
	table      map[tuple.Key]int     // nil unless the count stage is assignment-routed
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
	r := &distributedRun{}
	spec.Stages[1].Policies = append(spec.Stages[1].Policies, roundLog{r})
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "coord.sock")
	}
	c, err := NewCoordinator(spec, network, addr)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

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
	r.rebalances = c.Rebalances()
	r.series = append(r.series, c.Recorder().Series...)
	if ctl := c.ctls[1]; ctl != nil {
		r.planner, r.held, r.pinned = ctl.Planner.Name(), ctl.HeldSplit, ctl.SplitPinned
	}
	for _, p := range c.policies[1] {
		if sp, ok := p.(*controller.Splitter); ok {
			r.splits = sp.Announced
		}
	}
	countStage := workers[c.Placement()[1]].Stage(1)
	if countStage == nil {
		t.Fatal("count stage not hosted where placement says")
	}
	r.captureStage(countStage)
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
	slices.Sort(r.stats) // inbound data connections are listed as accepted
	if want := byteTableNames(nWorkers, len(spec.Stages)); !slices.Equal(r.stats, want) {
		t.Errorf("byte table lists %q, want %q", r.stats, want)
	}
	for i := range workers {
		if err := <-errs; err != nil {
			t.Fatalf("worker %d exited: %v", i, err)
		}
	}

	return r
}

// byteTableNames is the byte table a pipeline of nStages over nWorkers
// lists, sorted owner/connection names: the coordinator's spout edge and
// its end of every worker session, each worker's end of its session,
// and both ends of every data edge (stage si+1 is fed from stage si's
// host, co-located or not) — and no other connection.
func byteTableNames(nWorkers, nStages int) []string {
	host := func(si int) int { return si % nWorkers }
	names := []string{
		"coordinator/data spout→s0",
		fmt.Sprintf("w%d/data coordinator→s0", host(0)),
	}
	for i := 0; i < nWorkers; i++ {
		names = append(names, fmt.Sprintf("coordinator/session w%d", i), fmt.Sprintf("w%d/session", i))
	}
	for si := 1; si < nStages; si++ {
		names = append(names,
			fmt.Sprintf("w%d/data s%d→s%d", host(si-1), si-1, si),
			fmt.Sprintf("w%d/data w%d→s%d", host(si), host(si-1), si))
	}
	slices.Sort(names)
	return names
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
	r := &distributedRun{}
	spec.Stages[1].Policies = append(spec.Stages[1].Policies, roundLog{r})
	sys := spec.BuildLocal()
	defer sys.Stop()
	sys.Run(testIntervals)

	r.rebalances = sys.Rebalances()
	r.series = append(r.series, sys.Recorder().Series...)
	if ctl := sys.Controller(1); ctl != nil {
		r.planner, r.held, r.pinned = ctl.Planner.Name(), ctl.HeldSplit, ctl.SplitPinned
	}
	if sp := sys.Splitter(1); sp != nil {
		r.splits = sp.Announced
	}
	r.captureStage(sys.StageNamed("count"))
	return r
}

// captureStage records the count stage's routing table (when it routes
// by assignment) and its per-instance stores.
func (r *distributedRun) captureStage(count *engine.Stage) {
	if ar := count.AssignmentRouter(); ar != nil {
		tab := ar.Assignment().Table()
		r.table = map[tuple.Key]int{}
		for _, k := range tab.Keys() {
			r.table[k], _ = tab.Lookup(k)
		}
	}
	for d := 0; d < count.Instances(); d++ {
		st := count.StoreOf(d)
		r.stores = append(r.stores, storeSnap{total: st.TotalSize(), keys: len(st.Keys())})
	}
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

	if len(got.splitEnv) != len(want.splitEnv) {
		t.Fatalf("%s: %d count-stage rounds decided, want %d", name, len(got.splitEnv), len(want.splitEnv))
	}
	for i := range want.splitEnv {
		if !slices.Equal(got.splitEnv[i], want.splitEnv[i]) {
			t.Fatalf("%s: round %d planned around split set %v, want %v", name, i, got.splitEnv[i], want.splitEnv[i])
		}
	}
	if got.rebalances != want.rebalances {
		t.Errorf("%s: %d rebalances, want %d", name, got.rebalances, want.rebalances)
	}
	if got.planner != want.planner || got.splits != want.splits {
		t.Errorf("%s: planner %q with %d split announcements, want %q with %d", name, got.planner, got.splits, want.planner, want.splits)
	}
	if got.held != want.held || got.pinned != 0 || want.pinned != 0 {
		t.Errorf("%s: %d holds around the split and %d split-key moves stripped, want %d and 0 (locally %d)", name, got.held, got.pinned, want.held, want.pinned)
	}
	if (got.table == nil) != (want.table == nil) {
		t.Fatalf("%s: routing table present %v, want %v", name, got.table != nil, want.table != nil)
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

// TestSpecResolveMatchesTopologyDefaults pins the defaults a cluster
// deploys with: the builder's own resolver fills in Tab. II, and the
// capacity the coordinator throttles on and ships is the builder's
// saturation default.
func TestSpecResolveMatchesTopologyDefaults(t *testing.T) {
	s := &Spec{
		Name:   "t",
		SpoutB: func(dst []tuple.Tuple) int { return 0 },
		Stages: []StageSpec{{Name: "a", Op: "social/parse"}},
	}
	r, target, err := s.Resolve(true)
	if err != nil || target != 0 {
		t.Fatalf("target = %d, err = %v", target, err)
	}
	st := r.Stages[0]
	if st.Instances != topology.DefInstances || st.Window != topology.DefWindow ||
		st.Theta != topology.DefTheta || st.TableMax != topology.DefTableMax || !st.Target {
		t.Fatalf("resolved stage = %+v, want topology defaults", st)
	}
	if r.Budget != topology.DefBudget {
		t.Fatalf("budget = %d, want %d", r.Budget, topology.DefBudget)
	}
	if st.Capacity != r.Budget/int64(st.Instances) {
		t.Fatalf("capacity = %d", st.Capacity)
	}
	if s.Stages[0].Instances != 0 || s.Budget != 0 {
		t.Fatal("Resolve wrote its defaults into the caller's declaration")
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

// TestDistributedRunsWholeDeclaration pins the declarations a cluster
// used to refuse, each bit-identical to BuildLocal on series, snapshots,
// tables and stores over 3 workers: the count stage under AlgPKG (the
// latency floor shows in LatencyMs, the capacity shave in the
// throttle), under HotKeySplit (over unix and tcp, with the split set
// each round's controller planned around pinned too), and with a
// planner set on the StageSpec; and the whole pipeline with throttling
// off.
func TestDistributedRunsWholeDeclaration(t *testing.T) {
	budget := testSpec(t).Budget
	emittedBelow := func(r *distributedRun) bool {
		for _, m := range r.series {
			if m.Emitted < budget {
				return true
			}
		}
		return false
	}
	rows := []struct {
		name   string
		mutate func(*Spec)
		check  func(*distributedRun) string // what makes the row vacuous, or ""
	}{
		{"pkg", func(s *Spec) {
			// One parse task keeps the count stage's input order — which
			// PKG's two-choice routing depends on — the same in both runs;
			// its capacity leaves the throttle to the count stage.
			s.Stages[0].Instances, s.Stages[0].Capacity = 1, 20000
			s.Stages[1].Algorithm = topology.AlgPKG
			s.Stages[1].Capacity = 1000 // 888 after the shave: below the 1000 words a task gets
		}, func(r *distributedRun) string {
			for _, m := range r.series {
				if m.LatencyMs < 10 {
					return fmt.Sprintf("interval %d latency %.2f ms is below PKG's 10 ms floor", m.Index, m.LatencyMs)
				}
			}
			if !emittedBelow(r) {
				return "the shaved capacity never throttled the spout"
			}
			return ""
		}},
		{"hotkeysplit", func(s *Spec) {
			s.Stages[1].SplitKeys, s.Stages[1].SplitRatio = 3, 0.2
		}, func(r *distributedRun) string {
			if r.splits == 0 {
				return "no key was split"
			}
			for _, set := range r.splitEnv {
				if len(set) > 0 {
					return ""
				}
			}
			return "no round planned around a split key"
		}},
		{"planner", func(s *Spec) {
			s.Stages[1].Planner = balance.MinTable{}
		}, func(r *distributedRun) string {
			if r.planner != (balance.MinTable{}).Name() || r.rebalances == 0 {
				return fmt.Sprintf("planner %q applied %d plans", r.planner, r.rebalances)
			}
			return ""
		}},
		{"maxpending-off", func(s *Spec) {
			s.MaxPending = -1
			s.Stages[2].Capacity = 1000 // throttles when on (TestDownstreamThrottleMatchesLocal)
		}, func(r *distributedRun) string {
			if emittedBelow(r) {
				return "the spout was throttled with throttling off"
			}
			return ""
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			local := runLocal(t, row.mutate)
			if msg := row.check(local); msg != "" {
				t.Fatalf("local: %s", msg)
			}
			networks := []string{"unix"}
			if row.name == "hotkeysplit" {
				// The split set crosses the wire with its fans in every
				// report: pin the report on both transports.
				networks = append(networks, "tcp")
			}
			for _, network := range networks {
				dist := runDistributed(t, network, 3, row.mutate)
				compareRuns(t, row.name+"/"+network, dist, local)
			}
		})
	}
}

// TestInvalidDeclarationRefused pins where a bad declaration fails: the
// one resolver names the stage, BuildLocal panics with that error,
// NewCoordinator returns it before it listens, and a worker handed an
// operator its binary never registered, or a stage shape no declaration
// resolves to, ends its session naming it instead of building it.
func TestInvalidDeclarationRefused(t *testing.T) {
	op := func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }
	rows := []struct {
		name    string
		mutate  func(*Spec)
		want    string
		inLocal bool // also invalid in one process
	}{
		{"duplicate name", func(s *Spec) { s.Stages[2].Name = "count" }, `duplicate stage name "count"`, true},
		{"two targets", func(s *Spec) { s.Stages[2].Target = true }, `"count" and "topk" both marked Target`, true},
		{"unknown algorithm", func(s *Spec) { s.Stages[1].Algorithm = "bogus" }, `stage "count": topology: unknown algorithm "bogus"`, true},
		{"unknown op", func(s *Spec) { s.Stages[2].Op = "social/none" }, `stage "topk": unknown operator "social/none"`, true},
		{"factory only", func(s *Spec) { s.Stages[2].Op, s.Stages[2].Factory = "", op }, `stage "topk" has only an in-process operator factory`, false},
		{"negative instances", func(s *Spec) { s.Stages[1].Instances = -1 }, `stage "count": -1 instances`, true},
		{"instances past MaxTasks", func(s *Spec) { s.Stages[2].Instances = protocol.MaxTasks + 1 }, `stage "topk": 65537 instances`, true},
		{"negative window", func(s *Spec) { s.Stages[0].Window = -3 }, `stage "parse": a window of -3 intervals`, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			spec := testSpec(t)
			row.mutate(spec)
			addr := filepath.Join(t.TempDir(), "coord.sock")
			c, err := NewCoordinator(spec, "unix", addr)
			if err == nil {
				c.Shutdown()
				t.Fatal("coordinator accepted the declaration")
			}
			if !strings.Contains(err.Error(), row.want) {
				t.Fatalf("coordinator: %q does not say %q", err, row.want)
			}
			if _, serr := os.Stat(addr); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("coordinator listened before refusing: %v", serr)
			}
			func() {
				defer func() {
					got := recover()
					if !row.inLocal {
						if got != nil {
							t.Fatalf("BuildLocal panicked on a valid in-process declaration: %v", got)
						}
						return
					}
					if e, ok := got.(error); !ok || e.Error() != err.Error() {
						t.Fatalf("BuildLocal panicked with %v, want the coordinator's %q", got, err)
					}
				}()
				spec.BuildLocal().Stop()
			}()
		})
	}

	for _, row := range []struct {
		name   string
		mutate func(*protocol.StageAssign)
		want   string
	}{
		{"unknown op", func(a *protocol.StageAssign) { a.Op = "social/none" }, `unknown operator "social/none"`},
		{"negative instances", func(a *protocol.StageAssign) { a.Instances = -1 }, `stage "s": -1 instances`},
		{"2^32 instances", func(a *protocol.StageAssign) { a.Instances = 1 << 32 }, `stage "s": 4294967296 instances`},
		{"zero window", func(a *protocol.StageAssign) { a.Window = 0 }, `stage "s": a window of 0 intervals`},
	} {
		t.Run("worker "+row.name, func(t *testing.T) {
			ln, err := Listen("unix", filepath.Join(t.TempDir(), "coord.sock"))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			sess := make(chan *Conn, 1)
			go func() {
				conn, _, err := ln.Accept()
				if err == nil && conn.Welcome(0) == nil {
					sess <- conn
				}
				close(sess)
			}()
			w, err := NewWorker("unix", ln.Addr(), filepath.Join(t.TempDir(), "w0.sock"), "w0")
			if err != nil {
				t.Fatal(err)
			}
			conn := <-sess
			if conn == nil {
				t.Fatal("no worker session")
			}
			defer conn.Close()
			assign := &protocol.StageAssign{Name: "s", Op: "social/count", Instances: 1, Window: 1, Capacity: 1, Budget: 1}
			row.mutate(assign)
			if err := conn.Send(&protocol.Message{Assign: assign}); err != nil {
				t.Fatal(err)
			}
			if err := w.Run(); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("worker Run = %v, want %q", err, row.want)
			}
			// The session's last word is the error, as a Shutdown's reason.
			if m, err := conn.Recv(); err != nil || m.Bye == nil || !strings.Contains(m.Bye.Reason, row.want) {
				t.Fatalf("the coordinator's side read %v, %v; want a Shutdown saying %q", m, err, row.want)
			}
		})
	}
}

// structCount stores a struct value, which has no wire encoding.
type structCount struct{ N int }

func init() {
	RegisterOp("test/structcount", func(int) engine.Operator { return structCountOp{} })
}

type structCountOp struct{}

func (structCountOp) Process(ctx *engine.TaskCtx, t tuple.Tuple) {
	ctx.Store.Add(t.Key, state.Entry{Value: structCount{N: 1}, Size: t.StateSize})
}

// TestUnencodableStateEndsRun: a stage whose operator stores a value
// outside the wire's value tags cannot migrate a key to another
// process. Its first migration — by a plan, or by a scale-out on a
// stage that never plans — ends the worker's session with an error
// naming the stage, the key and the type, and the coordinator's run
// returns that error within bounded time instead of hanging.
func TestUnencodableStateEndsRun(t *testing.T) {
	for _, row := range []struct {
		name   string
		mutate func(*StageSpec)
	}{
		{"plan", func(st *StageSpec) { st.Policies = nil }},
		{"scale-out", func(st *StageSpec) { st.Algorithm = topology.AlgStorm }},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := testSpec(t)
			spec.Stages[1].Op = "test/structcount"
			row.mutate(&spec.Stages[1])
			dir := t.TempDir()
			c, err := NewCoordinator(spec, "unix", filepath.Join(dir, "coord.sock"))
			if err != nil {
				t.Fatal(err)
			}
			errs := make(chan error, 2)
			for i := 0; i < 2; i++ {
				w, err := NewWorker("unix", c.Addr(), filepath.Join(dir, fmt.Sprintf("w%d.sock", i)), fmt.Sprintf("w%d", i))
				if err != nil {
					t.Fatal(err)
				}
				go func() { errs <- w.Run() }()
			}
			if err := c.Deploy(2); err != nil {
				t.Fatal(err)
			}
			run := make(chan error, 1)
			go func() { run <- c.Run(testIntervals) }()
			const want = "cluster.structCount"
			select {
			case err := <-run:
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), `stage "count"`) {
					t.Fatalf("coordinator Run = %v, want the error naming stage count and %s", err, want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("the coordinator's run did not end")
			}
			c.Shutdown()
			var failed int
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "key ") {
						t.Fatalf("worker Run = %v, want the key and %s named", err, want)
					}
					failed++
				}
			}
			if failed != 1 {
				t.Fatalf("%d workers failed, want the count stage's host alone", failed)
			}
		})
	}
}
