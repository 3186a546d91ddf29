package experiments

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/readj"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// System-level experiments (Figs. 13–16): real tuples through the
// engine, real state migration, throughput/latency from the saturation
// model. Scales are laptop-sized: tuple
// budgets per interval are 10^4 instead of the cluster's 10^5/s, and
// interval counts are tens instead of hundreds. Shapes, not absolute
// numbers, are the reproduction target.

const (
	realBudget    = 10000
	realND        = 10
	realIntervals = 24
	realWarmup    = 4
	// baseCost is the per-tuple service cost; it scales capacity so
	// migration volumes are a visible fraction of service capacity.
	// PKG's partial-result coordination overhead is charged by
	// topology.PKGOverhead against its capacity.
	baseCost = 8
)

// realSpec configures one system run.
type realSpec struct {
	alg      topology.Algorithm
	theta    float64
	window   int
	next     func() tuple.Tuple // raw generator draw
	advance  func()             // workload drift per interval
	op       func(id int) engine.Operator
	nd       int
	sigma    float64 // Readj σ
	useTuned bool    // tune Readj σ per plan (paper's best-σ reporting)
}

// buildSpec declares the system per spec: one "operator" stage under
// the spec's algorithm, fed by the generator at baseCost per tuple.
func buildSpec(s realSpec) *topology.Spec {
	cost := int64(baseCost)
	nd := s.nd
	if nd == 0 {
		nd = realND
	}
	st := topology.StageSpec{
		Name:      "operator",
		Factory:   s.op,
		Instances: nd,
		Window:    s.window,
		Algorithm: s.alg,
		Theta:     s.theta,
		TableMax:  defNA,
		Capacity:  int64(baseCost) * realBudget / int64(nd),
		MinKeys:   32,
	}
	if s.alg == topology.AlgReadj {
		// Run the fixed-σ planner, or the tuned variant when asked
		// (the paper's best-σ reporting).
		st.Planner = readj.Planner{Sigma: s.sigma}
		if s.useTuned {
			st.Planner = plannerFunc{"ReadjTuned", func(sn *stats.Snapshot, c balance.Config) *balance.Plan {
				return readj.Tune(sn, c, nil)
			}}
		}
	}
	spec := &topology.Spec{
		Budget: realBudget,
		SpoutB: engine.BatchSpout(func() tuple.Tuple {
			t := s.next()
			t.Cost = cost
			return t
		}),
		Stages: []topology.StageSpec{st},
	}
	if s.advance != nil {
		spec.Advance = func(int64) { s.advance() }
	}
	return spec
}

// runner runs a declaration for some intervals and returns the recorded
// stage's series. runLocal is the exhibits' runner; a test swaps in one
// that deploys the same declaration on a cluster.
type runner func(spec *topology.Spec, intervals int) []metrics.Interval

func runLocal(spec *topology.Spec, intervals int) []metrics.Interval {
	sys := spec.BuildLocal()
	defer sys.Stop()
	sys.Run(intervals)
	return sys.Recorder().Series
}

// steadyState runs the spec and returns mean throughput (tuples/s) and
// latency (ms) after warm-up.
func steadyState(run runner, s realSpec, intervals int) (float64, float64) {
	var thr, lat float64
	n := 0
	for _, m := range run(buildSpec(s), intervals)[realWarmup:] {
		thr += m.Throughput
		lat += m.LatencyMs
		n++
	}
	return thr / float64(n), lat / float64(n)
}

// Fig13 regenerates Fig. 13: throughput and latency vs fluctuation
// rate f for Storm, Readj, Mixed and the Ideal shuffle bound.
func Fig13() *Result {
	r := &Result{
		ID:     "fig13",
		Title:  "Throughput (tuples/s) and latency (ms) vs fluctuation rate f",
		Header: []string{"f", "Storm thr", "Readj thr", "Mixed thr", "Ideal thr", "Storm lat", "Readj lat", "Mixed lat", "Ideal lat"},
		Notes:  "Mixed tracks Ideal; Readj degrades as f grows; Storm trails throughout",
	}
	// K = 1e4 puts meaningful mass on the hot keys (Fig. 7(b)) so hash
	// placement matters; z, θmax at Tab. II defaults.
	const k = 10000
	run := func(alg topology.Algorithm, f float64) (float64, float64) {
		gen := workload.NewZipfStream(k, defZ, f, realBudget, 43)
		sp := realSpec{
			alg: alg, theta: defTheta, window: 1,
			next:  gen.Next,
			op:    func(int) engine.Operator { return engine.StatefulCount },
			sigma: 0.1,
		}
		sys := buildSpec(sp).BuildLocal()
		defer sys.Stop()
		// Fluctuation swaps frequencies between keys on *different task
		// instances* of the system under test (§V), so the live
		// assignment must drive them; key-oblivious schemes get a fixed
		// modular view.
		if ar := sys.Stage(0).AssignmentRouter(); ar != nil {
			sys.Engine.AdvanceWorkload = func(int64) { gen.Advance(ar.Assignment()) }
		} else {
			sys.Engine.AdvanceWorkload = func(int64) { gen.Advance(modAsg{realND}) }
		}
		sys.Run(realIntervals)
		var thr, lat float64
		n := 0
		for _, m := range sys.Recorder().Series[realWarmup:] {
			thr += m.Throughput
			lat += m.LatencyMs
			n++
		}
		return thr / float64(n), lat / float64(n)
	}
	for _, f := range []float64{0.1, 0.5, 0.9, 1.3, 1.7, 2.0} {
		sThr, sLat := run(topology.AlgStorm, f)
		rThr, rLat := run(topology.AlgReadj, f)
		mThr, mLat := run(topology.AlgMixed, f)
		iThr, iLat := run(topology.AlgIdeal, f)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.1f", f),
			f0(sThr), f0(rThr), f0(mThr), f0(iThr),
			f1(sLat), f1(rLat), f1(mLat), f1(iLat),
		})
	}
	return r
}

// modAsg is a key-modulo assignment view used only to drive workload
// fluctuation for schemes without an assignment router.
type modAsg struct{ nd int }

func (m modAsg) Dest(k tuple.Key) int { return int(uint64(k) % uint64(m.nd)) }
func (m modAsg) Instances() int       { return m.nd }

// fig14 runs one dataset across algorithms × θmax, reporting mean
// throughput (the bar chart of Fig. 14).
func fig14(run runner, id, title string, algs []topology.Algorithm, mkSpec func(alg topology.Algorithm, theta float64) realSpec) *Result {
	r := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"theta"},
		Notes:  "best throughput at strict theta under Mixed; Readj needs loose theta to catch up",
	}
	for _, a := range algs {
		r.Header = append(r.Header, string(a)+" thr")
	}
	for _, th := range []float64{0.02, 0.08, 0.15, 0.3} {
		row := []string{fmt.Sprintf("%.2f", th)}
		for _, a := range algs {
			thr, _ := steadyState(run, mkSpec(a, th), realIntervals)
			row = append(row, f0(thr))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig14a regenerates Fig. 14(a): word count on the Social feed.
func Fig14a() *Result { return fig14a(runLocal) }

func fig14a(run runner) *Result {
	algs := []topology.Algorithm{topology.AlgStorm, topology.AlgReadj, topology.AlgMixed, topology.AlgPKG, topology.AlgMinTable}
	return fig14(run, "fig14a", "Throughput on Social data (word count)", algs,
		func(alg topology.Algorithm, th float64) realSpec {
			gen := workload.NewSocial(30000, defZ, 0.002, 47)
			fleet := ops.NewWordCountFleet()
			return realSpec{
				alg: alg, theta: th, window: 1,
				next:    gen.Next,
				advance: gen.Advance,
				op:      fleet.Factory,
				sigma:   0.1, useTuned: true,
			}
		})
}

// Fig14b regenerates Fig. 14(b): self-join over the Stock tape. PKG is
// excluded, as in the paper: key splitting breaks join semantics.
func Fig14b() *Result {
	algs := []topology.Algorithm{topology.AlgStorm, topology.AlgReadj, topology.AlgMixed, topology.AlgMinTable}
	return fig14(runLocal, "fig14b", "Throughput on Stock data (windowed self-join)", algs,
		func(alg topology.Algorithm, th float64) realSpec {
			gen := workload.NewStock(0, defZ, 53)
			fleet := ops.NewSelfJoinFleet(false)
			return realSpec{
				alg: alg, theta: th, window: 5,
				next:    gen.Next,
				advance: gen.Advance,
				op:      fleet.Factory,
				sigma:   0.1, useTuned: true,
			}
		})
}

// Fig15 regenerates Fig. 15: throughput over time as one instance is
// added mid-run (Social word count). Series are sampled every other
// interval; the recovery speed after the scale-out event is the story.
func Fig15() *Result {
	const (
		pre   = 8
		post  = 16
		total = pre + post
	)
	r := &Result{
		ID:     "fig15",
		Title:  "Scale-out dynamics on Social data (instance added at t=8)",
		Header: []string{"t"},
		Notes:  "Mixed restores full throughput within ~1 interval; Readj lags; Storm never rebalances onto the new instance beyond hash arcs",
	}
	type series struct {
		label string
		spec  realSpec
		grow  bool
	}
	mk := func(alg topology.Algorithm, th float64, tuned bool) realSpec {
		gen := workload.NewSocial(30000, defZ, 0.002, 59)
		fleet := ops.NewWordCountFleet()
		return realSpec{
			alg: alg, theta: th, window: 1, nd: realND - 1,
			next: gen.Next, advance: gen.Advance,
			op: fleet.Factory, sigma: 0.1, useTuned: tuned,
		}
	}
	pkgSpec := mk(topology.AlgPKG, 0.1, false)
	pkgSpec.nd = realND // PKG is theta-insensitive; runs at final size
	sers := []series{
		{"Mixed th=0.1", mk(topology.AlgMixed, 0.1, false), true},
		{"Readj th=0.1", mk(topology.AlgReadj, 0.1, true), true},
		{"Mixed th=0.2", mk(topology.AlgMixed, 0.2, false), true},
		{"Readj th=0.2", mk(topology.AlgReadj, 0.2, true), true},
		{"PKG", pkgSpec, false},
		{"Storm", mk(topology.AlgStorm, 0.1, false), true},
	}
	cols := make([][]float64, len(sers))
	for i, se := range sers {
		r.Header = append(r.Header, se.label)
		sys := buildSpec(se.spec).BuildLocal()
		sys.Run(pre)
		if se.grow {
			sys.Engine.ResizeStage(0, +1)
		}
		sys.Run(post)
		for _, m := range sys.Recorder().Series {
			cols[i] = append(cols[i], m.Throughput)
		}
		sys.Stop()
	}
	for t := 0; t < total; t += 2 {
		row := []string{fmt.Sprint(t)}
		for i := range sers {
			row = append(row, f0(cols[i][t]))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

// Fig16 regenerates Fig. 16: continuous TPC-H Q5 under periodic
// distribution shifts (every 5 intervals), θmax ∈ {0.1, 0.2}.
func Fig16() *Result {
	const intervals = 30
	r := &Result{
		ID:     "fig16",
		Title:  "TPC-H Q5 throughput over time (FK distribution shift every 5 intervals)",
		Header: []string{"t"},
		Notes:  "Mixed recovers after each shift; Storm stays depressed; MinTable pays migration dips",
	}
	type series struct {
		label string
		alg   topology.Algorithm
		theta float64
	}
	sers := []series{
		{"Mixed th=0.1", topology.AlgMixed, 0.1},
		{"Readj th=0.1", topology.AlgReadj, 0.1},
		{"MinTable th=0.1", topology.AlgMinTable, 0.1},
		{"Storm", topology.AlgStorm, 0.1},
		{"Mixed th=0.2", topology.AlgMixed, 0.2},
		{"Readj th=0.2", topology.AlgReadj, 0.2},
	}
	cols := make([][]float64, len(sers))
	for i, se := range sers {
		cfg := workload.DefaultTPCHConfig()
		cfg.Seed = 61
		gen := workload.NewTPCH(cfg)
		fleet := ops.NewQ5JoinFleet(gen, 2 /* ASIA */)
		tick := 0
		sp := realSpec{
			alg: se.alg, theta: se.theta, window: 5,
			next: gen.Next,
			advance: func() {
				tick++
				if tick%5 == 0 {
					gen.Advance()
				}
			},
			op:    fleet.Factory,
			sigma: 0.1, useTuned: true,
		}
		for _, m := range runLocal(buildSpec(sp), intervals) {
			cols[i] = append(cols[i], m.Throughput)
		}
		r.Header = append(r.Header, se.label)
	}
	for t := 0; t < intervals; t += 2 {
		row := []string{fmt.Sprint(t)}
		for i := range sers {
			row = append(row, f0(cols[i][t]))
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

func f0(x float64) string { return fmt.Sprintf("%.0f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
