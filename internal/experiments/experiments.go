// Package experiments regenerates every table and figure of the
// paper's evaluation section (§V plus the appendix figures) as text
// series. Each FigXX function is self-contained and deterministic;
// cmd/benchrunner prints them, the root bench_test.go wraps them in
// testing.B benches, and per-exhibit comments interpret the measured
// shapes against the paper's.
//
// Two harnesses are used:
//
//   - a planning-only simulator (planSim) for the algorithm-level
//     figures (8–12, 17–21): per-interval expected loads from the
//     synthetic Zipf generator drive the planners directly, so plan
//     generation time and migration cost are measured without engine
//     noise;
//   - the full engine for the system-level figures (13–16): tuples
//     actually flow, states actually migrate, and throughput/latency
//     come from the saturation model.
package experiments

import (
	"encoding/csv"
	"fmt"
	"strings"
	"time"

	"repro/internal/balance"
	"repro/internal/hashring"
	"repro/internal/metrics"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Result is one regenerated exhibit.
type Result struct {
	ID     string // e.g. "fig08"
	Title  string
	Header []string
	Rows   [][]string
	// Notes records interpretation guidance (what shape to expect).
	Notes string
}

// Render formats the result as an aligned text table.
func (r *Result) Render() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	s += metrics.Table(r.Header, r.Rows)
	if r.Notes != "" {
		s += "note: " + r.Notes + "\n"
	}
	return s
}

// CSV renders the result as comma-separated values (header first) for
// external plotting.
func (r *Result) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(r.Header)
	for _, row := range r.Rows {
		w.Write(row)
	}
	w.Flush()
	return b.String()
}

// Registry lists every experiment in paper order.
func Registry() []struct {
	ID  string
	Run func() *Result
} {
	return []struct {
		ID  string
		Run func() *Result
	}{
		{"fig01", Fig01},
		{"table2", Table2},
		{"fig07a", Fig07a},
		{"fig07b", Fig07b},
		{"fig08", Fig08},
		{"fig09", Fig09},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig12", Fig12},
		{"fig13", Fig13},
		{"fig14a", Fig14a},
		{"fig14b", Fig14b},
		{"fig15", Fig15},
		{"fig16", Fig16},
		{"fig17", Fig17},
		{"fig18", Fig18},
		{"fig19", Fig19},
		{"fig20", Fig20},
		{"fig21", Fig21},
		{"abl-adjust", AblAdjust},
		{"abl-clean", AblClean},
		{"abl-psi", AblPsi},
		{"abl-discretize", AblDiscretize},
		{"abl-sigma", AblSigma},
	}
}

// Defaults mirror Tab. II's bold entries.
const (
	defK      = 100000
	defZ      = 0.85
	defF      = 1.0
	defTheta  = 0.08
	defBeta   = 1.5
	defND     = 10
	defNA     = 3000
	defBudget = 100000 // tuples per interval in the planning simulator
)

// Table2 prints the parameter defaults actually used, next to the
// paper's (they are identical by construction).
func Table2() *Result {
	r := &Result{
		ID:     "table2",
		Title:  "Parameter settings (Tab. II defaults)",
		Header: []string{"param", "default", "meaning"},
		Rows: [][]string{
			{"K", fmt.Sprint(defK), "size of key domain"},
			{"z", fmt.Sprint(defZ), "distribution skewness"},
			{"f", fmt.Sprint(defF), "fluctuation rate"},
			{"theta_max", fmt.Sprint(defTheta), "tolerance on load imbalance"},
			{"beta", fmt.Sprint(defBeta), "migration selection factor"},
			{"w", "1 (and 5)", "state window in intervals"},
			{"N_D", fmt.Sprint(defND), "number of task instances"},
			{"N_A", fmt.Sprint(defNA), "routing table bound"},
		},
	}
	return r
}

// planSim drives planners against per-interval expected loads: the
// algorithm-level harness. It maintains the live assignment F, a
// w-interval memory window per key, and applies each plan before the
// next fluctuation — exactly the controller's cadence without tuples.
type planSim struct {
	stream *workload.ZipfStream
	asg    *route.Assignment
	w      int
	// win holds the last w intervals' loads, oldest first, as the keys
	// with a nonzero expected count; mem[k] is key k's sum over them, its
	// windowed state contribution (state ∝ tuple count for the unit-cost
	// synthetic workload). The stream's keys are [0, K), so mem and cost
	// (the current interval's counts, zero between snapshots) are
	// indexed by key.
	win      [][]keyCount
	mem      []int64
	cost     []int64
	interval int64
}

// keyCount is one key's expected tuple count in one interval.
type keyCount struct {
	key tuple.Key
	n   int64
}

func newPlanSim(k int, z, f float64, nd, w int, seed int64) *planSim {
	return newPlanSimBudget(k, z, f, nd, w, seed, defBudget)
}

// newPlanSimBudget lets experiments scale the per-interval tuple budget
// (and with it the number of statistically active keys) independently
// of the key-domain size.
func newPlanSimBudget(k int, z, f float64, nd, w int, seed, budget int64) *planSim {
	return &planSim{
		stream: workload.NewZipfStream(k, z, f, budget, seed),
		asg:    route.NewAssignment(route.NewTable(), hashring.New(nd, 0)),
		w:      w,
		mem:    make([]int64, k),
		cost:   make([]int64, k),
	}
}

// stateWeight decouples a key's per-tuple state footprint from its CPU
// cost: values carried by different keys have different sizes (1–4
// units), deterministically derived from the key. Without this, w = 1
// would make S(k,w) ∝ c(k) and the migration-priority index
// γ = c^β/S degenerate to a pure cost ordering for every β — erasing
// the β sensitivity the appendix figures study.
func stateWeight(k tuple.Key) int64 {
	return 1 + int64((uint64(k)*2654435761)>>30%4)
}

// snapshot builds the planner input for the current interval, moving
// the window on by the stream's current expected load. Keys come out in
// stats.SortByCostDesc's order without a comparison sort: a walk over
// the key domain visits them in ascending key order, and each lands at
// the next free slot of its cost's run, the runs laid out by descending
// cost.
func (s *planSim) snapshot() *stats.Snapshot {
	ranked, counts := s.stream.RankLoad()
	var load []keyCount
	if len(s.win) == s.w {
		// The oldest interval leaves the window; its list is recycled.
		load = s.win[0]
		for _, kc := range load {
			s.mem[kc.key] -= kc.n
		}
		s.win = append(s.win[:0], s.win[1:]...)
	}
	load = load[:0]
	var maxCost int64
	for r, c := range counts {
		if c > 0 {
			k := ranked[r]
			load = append(load, keyCount{k, c})
			s.mem[k] += c
			s.cost[k] = c
			maxCost = max(maxCost, c)
		}
	}
	s.win = append(s.win, load)
	// next[c] is where the next key of cost c goes.
	next := make([]int, maxCost+1)
	for _, kc := range load {
		next[kc.n]++
	}
	at := 0
	for c := maxCost; c > 0; c-- {
		next[c], at = at, at+next[c]
	}
	snap := &stats.Snapshot{Interval: s.interval, ND: s.asg.Instances(), Keys: make([]stats.KeyStat, len(load))}
	for i, c := range s.cost {
		if c == 0 {
			continue
		}
		k := tuple.Key(i)
		snap.Keys[next[c]] = stats.KeyStat{
			Key: k, Cost: c, Freq: c, Mem: s.mem[k] * stateWeight(k),
			Dest: s.asg.Dest(k), Hash: s.asg.HashDest(k),
		}
		next[c]++
		s.cost[i] = 0
	}
	return snap
}

// apply installs a plan's routing table as the live assignment.
func (s *planSim) apply(p *balance.Plan) {
	s.asg = route.NewAssignment(p.Table.Clone(), s.asg.Hasher())
}

// advance moves to the next interval, fluctuating the stream.
func (s *planSim) advance() {
	s.stream.Advance(s.asg)
	s.interval++
}

// planMetrics aggregates a planner's behaviour over `rounds`
// plan/apply/fluctuate cycles, after a warm-up adjustment.
type planMetrics struct {
	GenTime  time.Duration // mean
	MigPct   float64       // mean migration %, per adjustment
	Table    int           // final table size
	MaxTheta float64       // mean post-plan imbalance
}

func runPlanner(sim *planSim, p balance.Planner, cfg balance.Config, rounds int) planMetrics {
	var out planMetrics
	var gen time.Duration
	var mig, theta float64
	for r := 0; r < rounds; r++ {
		snap := sim.snapshot()
		plan := p.Plan(snap, cfg)
		gen += plan.GenTime
		mig += plan.MigrationPct(snap.TotalMem())
		theta += plan.MaxTheta
		out.Table = plan.TableSize()
		sim.apply(plan)
		sim.advance()
	}
	out.GenTime = gen / time.Duration(rounds)
	out.MigPct = mig / float64(rounds)
	out.MaxTheta = theta / float64(rounds)
	return out
}

// ms renders a duration in milliseconds for table cells.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}
