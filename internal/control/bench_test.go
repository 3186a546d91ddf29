package control_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/control"
	"repro/internal/controller"
	"repro/internal/engine"
	"repro/internal/protocol"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// BenchmarkEngineInterval quantifies what the control plane adds to a
// whole engine interval (10k tuples through a Mixed-managed stage):
// "direct" drives the controller on the stage with no protocol, "local"
// the command path in process (control.NewLoop) and "wire" over the
// framed pipe. The direct-vs-local delta is the honest price of speaking
// the protocol every interval.
func BenchmarkEngineInterval(b *testing.B) {
	run := func(b *testing.B, wiring string) {
		gen := workload.NewZipfStream(10000, 0.85, 0, 10000, 17)
		st := engine.NewStage("op", 10, func(int) engine.Operator { return engine.StatefulCount }, 1,
			engine.NewAssignmentRouter(topology.NewAssignment(10)))
		cfg := engine.DefaultConfig()
		e := engine.NewBatch(gen.NextBatch, cfg, st)
		defer e.Stop()
		ctl := mkController()
		switch wiring {
		case "direct":
			e.AddSnapshotHook(0, directHook(ctl))
		case "local":
			localLoop(e, 0, []control.Policy{ctl})
		case "wire":
			defer framedLoop(e, 0, []control.Policy{ctl})()
		}
		b.ResetTimer()
		e.Run(b.N)
	}
	for _, wiring := range []string{"direct", "local", "wire"} {
		b.Run(wiring, func(b *testing.B) { run(b, wiring) })
	}
}

// roundRuns pre-draws the per-task sorted runs of n intervals at the
// repository benchmark's variance shape: 20 000 tuples over 100 000
// keys at z = 0.85, each interval's ranks on fresh keys — about 11 000
// harvested keys, 1.8 tuples apiece, a few of them hot enough to put
// every interval past θmax. Keys sit on their hash destinations.
func roundRuns(asg *route.Assignment, n int) [][][]stats.KeyStat {
	const domain, tuples = 100000, 20000
	rng := rand.New(rand.NewSource(1))
	dist := workload.NewZipf(domain, 0.85)
	rounds := make([][][]stats.KeyStat, n)
	for r := range rounds {
		perm := rng.Perm(domain)
		counts := map[tuple.Key]int64{}
		for i := 0; i < tuples; i++ {
			counts[tuple.Key(perm[dist.Rank(rng)-1])]++
		}
		runs := make([][]stats.KeyStat, asg.Instances())
		for k, c := range counts {
			d := asg.HashDest(k)
			runs[d] = append(runs[d], stats.KeyStat{Key: k, Cost: c, Freq: c, Mem: c * int64(1+rng.Intn(5)), Dest: d, Hash: d})
		}
		for _, run := range runs {
			stats.SortByCostDesc(run)
		}
		rounds[r] = runs
	}
	return rounds
}

// timedPlanner accumulates the time spent planning. Plan runs inside the
// round — on the driver's goroutine in process, on the answering
// goroutine while the driver waits over the wire — so the driver may
// read the sum between rounds.
type timedPlanner struct {
	inner balance.Planner
	spent time.Duration
	plans int
}

func (p *timedPlanner) Name() string { return p.inner.Name() }

func (p *timedPlanner) Plan(snap *stats.Snapshot, cfg balance.Config) *balance.Plan {
	t0 := time.Now()
	plan := p.inner.Plan(snap, cfg)
	p.spent += time.Since(t0)
	p.plans++
	return plan
}

// BenchmarkControlRound measures the interval's control path at the
// repository benchmark's variance shape — ~11 000 keys re-drawn every
// round over 8 instances, a Mixed plan in every round — from the
// trackers' sorted runs to the applied plan, in process and over the
// framed pipe the cluster speaks. Besides ns/op and the allocations
// it reports nanoseconds per harvested key, split into the merge of the
// runs, the planner, and the report path around them (transport,
// validation, decide, announce, apply). Run via `make bench-control`.
func BenchmarkControlRound(b *testing.B) {
	const nd = 8
	for _, transport := range []string{"local", "framed-pipe"} {
		b.Run(transport, func(b *testing.B) {
			st := engine.NewStage("bench", nd, func(int) engine.Operator { return engine.OperatorFunc(func(*engine.TaskCtx, tuple.Tuple) {}) }, 1,
				engine.NewAssignmentRouter(topology.NewAssignment(nd)))
			e := engine.NewBatch(engine.BatchSpout(func() tuple.Tuple { return tuple.New(0, nil) }), engine.DefaultConfig(), st)
			defer e.Stop()
			planner := &timedPlanner{inner: balance.Mixed{}}
			policies := []control.Policy{controller.New(planner, balance.Config{ThetaMax: 0.08, TableMax: 3000, Beta: 1.5})}
			x := control.NewLoop(e, 0, policies)
			if transport == "framed-pipe" {
				agent, ctrl := newFramedPair()
				defer agent.Close()
				x = control.NewExecutor(e, 0, agent)
				defer serve(ctrl, policies)()
			}
			rounds := roundRuns(st.AssignmentRouter().Assignment(), 8)
			// The stage's own arrangement: two merge buffers, alternating.
			var merged [2][]stats.KeyStat
			var mergeTime time.Duration
			keys := 0
			round := func(i int) {
				t0 := time.Now()
				buf := &merged[i&1]
				*buf = stats.MergeRuns((*buf)[:0], rounds[i%len(rounds)])
				mergeTime += time.Since(t0)
				keys += len(*buf)
				x.RunRound(&stats.Snapshot{Interval: int64(i), ND: nd, Keys: *buf})
			}
			for i := 0; i < 2*len(rounds); i++ { // buffers and pooled state reach their size
				round(i)
			}
			mergeTime, keys, planner.spent, planner.plans = 0, 0, 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(i)
			}
			b.StopTimer()
			if planner.plans != b.N {
				b.Fatalf("%d of %d rounds planned", planner.plans, b.N)
			}
			perKey := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(keys) }
			b.ReportMetric(perKey(b.Elapsed()), "ns/key")
			b.ReportMetric(perKey(mergeTime), "merge-ns/key")
			b.ReportMetric(perKey(planner.spent), "plan-ns/key")
			b.ReportMetric(perKey(b.Elapsed()-mergeTime-planner.spent), "report-ns/key")
		})
	}
}

// BenchmarkWireCodec measures the framed codec's per-message cost for
// the report frame at several population sizes: each Send encodes into
// the retained scratch and hits the transport with one Write, and Recv
// decodes the run into one of two retained buffers, so steady-state
// allocations per message stay flat as reports grow. Run with
// -benchmem; B/msg is the encoded wire size.
func BenchmarkWireCodec(b *testing.B) {
	for _, keys := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("report/keys=%d", keys), func(b *testing.B) {
			var buf bytes.Buffer
			c := protocol.NewFramedCodec(&buf)
			rep := &protocol.LoadReport{Interval: 7, Tasks: 4, Capacity: 1 << 20}
			for i := 0; i < keys; i++ {
				rep.Keys = append(rep.Keys, stats.KeyStat{
					Key: tuple.Key(i), Cost: int64(keys - i), Freq: 1, Mem: 2, Dest: i % 4, Hash: i % 4,
				})
			}
			m := &protocol.Message{Report: rep}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(m); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.SentBytes())/float64(b.N), "B/msg")
		})
	}
}
