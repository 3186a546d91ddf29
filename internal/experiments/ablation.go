package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/balance"
	"repro/internal/compact"
	"repro/internal/readj"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Ablations of the reproduction's design choices. These go beyond
// the paper's own exhibits: each isolates one mechanism (the Adjust
// repair, the cleaning criterion η, the selection criterion ψ, the
// holistic discretizer) and measures what it buys.

// AblAdjust quantifies the exchangeable-set repair of §III-A: LLFD with
// and without Adjust on snapshots where re-overloading bites (a few
// heavy keys over few instances).
func AblAdjust() *Result {
	r := &Result{
		ID:     "abl-adjust",
		Title:  "(ablation) LLFD with vs without the Adjust repair",
		Header: []string{"N_D", "theta with-adjust", "theta no-adjust", "forced placements avoided"},
		Notes:  "Adjust repairs the re-overloading problem; without it heavy keys land on overloaded instances",
	}
	for _, nd := range []int{2, 4, 8} {
		var withT, without float64
		improved := 0
		const trials = 40
		rng := rand.New(rand.NewSource(int64(100 + nd)))
		for t := 0; t < trials; t++ {
			snap := heavyKeySnapshot(rng, nd)
			cfg := balance.Config{ThetaMax: 0, Beta: 1}
			a := balance.LLFD{}.Plan(snap, cfg)
			b := balance.LLFD{NoAdjust: true}.Plan(snap, cfg)
			withT += a.OverloadTheta
			without += b.OverloadTheta
			if a.OverloadTheta < b.OverloadTheta {
				improved++
			}
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(nd),
			fmt.Sprintf("%.4f", withT/trials),
			fmt.Sprintf("%.4f", without/trials),
			fmt.Sprintf("%d/%d", improved, trials),
		})
	}
	return r
}

// heavyKeySnapshot builds instances with a handful of heavy keys and a
// light tail — the regime where placing a heavy key re-overloads its
// least-loaded target.
func heavyKeySnapshot(rng *rand.Rand, nd int) *stats.Snapshot {
	s := &stats.Snapshot{ND: nd}
	id := 0
	add := func(cost int64) {
		s.Keys = append(s.Keys, stats.KeyStat{
			Key: tuple.Key(id), Cost: cost, Freq: cost, Mem: cost,
			Dest: rng.Intn(nd), Hash: rng.Intn(nd),
		})
		id++
	}
	for i := 0; i < nd*2; i++ {
		add(int64(50 + rng.Intn(51))) // heavy heads
	}
	for i := 0; i < nd*20; i++ {
		add(int64(1 + rng.Intn(5))) // light tail
	}
	stats.SortByCostDesc(s.Keys)
	return s
}

// AblClean compares Mixed's cleaning criterion η: the paper's
// smallest-memory-first against largest-memory and arbitrary order,
// under a tight routing-table bound that forces deep cleaning.
func AblClean() *Result {
	r := &Result{
		ID:     "abl-clean",
		Title:  "(ablation) Mixed cleaning criterion eta under a tight table bound",
		Header: []string{"policy", "mig% (mean)", "table (final)"},
		Notes:  "smallest-memory-first cleaning moves the cheapest state back; inverting it pays the maximum migration",
	}
	// Grow a sizable routing table first (MinMig, unbounded, strict θ),
	// then hand every policy the *same* snapshot with a bound tight
	// enough that hundreds of entries must be cleaned.
	sim := newPlanSim(20000, defZ, defF, defND, 3, 71)
	grow := balance.Config{ThetaMax: 0.02, Beta: 1.0}
	runPlanner(sim, balance.MinMig{}, grow, 10)
	snap := sim.snapshot()
	routed := 0
	for _, ks := range snap.Keys {
		if ks.Routed() {
			routed++
		}
	}
	cfg := balance.Config{ThetaMax: defTheta, TableMax: routed / 8, Beta: defBeta}
	type pol struct {
		name string
		p    balance.CleanPolicy
	}
	for _, pc := range []pol{
		{"smallest-mem (paper)", balance.CleanSmallestMem},
		{"largest-mem", balance.CleanLargestMem},
		{"arbitrary", balance.CleanByKey},
	} {
		plan := balance.Mixed{Clean: pc.p}.Plan(snap, cfg)
		r.Rows = append(r.Rows, []string{
			pc.name, f2(plan.MigrationPct(snap.TotalMem())), fmt.Sprint(plan.TableSize()),
		})
	}
	r.Notes += fmt.Sprintf(" (table grown to %d entries, bound %d)", routed, cfg.TableMax)
	return r
}

// AblPsi compares the Phase II selection criterion ψ: highest cost
// first (MinTable's) vs largest γ first (MinMig's), isolating the
// migration-priority index's contribution.
func AblPsi() *Result {
	r := &Result{
		ID:     "abl-psi",
		Title:  "(ablation) Phase II selection: psi = cost vs psi = gamma",
		Header: []string{"psi", "mig% w=3 (mean)", "theta (mean)"},
		Notes:  "gamma selection moves computation-dense, state-light keys: same balance, less state moved",
	}
	for _, c := range []struct {
		name string
		p    balance.Planner
	}{
		{"cost (MinTable-style)", balance.LLFD{Psi: balance.ByCost}},
		{"gamma (MinMig/Mixed)", balance.LLFD{Psi: balance.ByGamma}},
	} {
		sim := newPlanSim(20000, defZ, defF, defND, 3, 73)
		cfg := balance.Config{ThetaMax: defTheta, Beta: defBeta}
		runPlanner(sim, c.p, cfg, 1)
		pm := runPlanner(sim, c.p, cfg, sweepRounds)
		r.Rows = append(r.Rows, []string{c.name, f2(pm.MigPct), fmt.Sprintf("%.4f", pm.MaxTheta)})
	}
	return r
}

// AblDiscretize reproduces the Fig. 6 comparison as an ablation: the
// naive nearest-representative rounding vs the holistic greedy
// cancellation, measured by total deviation |δ| on Zipf cost batches.
func AblDiscretize() *Result {
	r := &Result{
		ID:     "abl-discretize",
		Title:  "(ablation) naive vs holistic HLHE discretization (total |delta| per 10k values)",
		Header: []string{"R", "naive |delta|", "holistic |delta|"},
		Notes:  "Theorem 3: the greedy choice keeps the accumulated deviation near zero at any degree",
	}
	rng := rand.New(rand.NewSource(79))
	xs := make([]int64, 10000)
	for i := range xs {
		// Zipf-flavoured values: many small, few large.
		v := int64(1)
		switch rng.Intn(10) {
		case 0:
			v = int64(100 + rng.Intn(900))
		case 1, 2:
			v = int64(10 + rng.Intn(90))
		default:
			v = int64(1 + rng.Intn(9))
		}
		xs[i] = v
	}
	for _, R := range []int64{2, 8, 32, 128} {
		naive := compact.NaiveDiscretize(xs, R)
		hol := compact.DiscretizeAll(xs, R)
		var dn, dh int64
		for i := range xs {
			dn += xs[i] - naive[i]
			dh += xs[i] - hol[i]
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(R), fmt.Sprint(absI64(dn)), fmt.Sprint(absI64(dh)),
		})
	}
	return r
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// AblSigma sweeps Readj's hot-key threshold σ, the parameter the paper
// tuned by binary search per experiment: small σ admits more candidate
// keys (better balance, slower plans), large σ restricts moves to the
// few hottest keys (fast but coarse). The sweep justifies both the
// paper's per-experiment tuning and this repo's readj.Tune helper.
func AblSigma() *Result {
	r := &Result{
		ID:     "abl-sigma",
		Title:  "(ablation) Readj sensitivity to the hot-key threshold sigma",
		Header: []string{"sigma", "theta (mean)", "mig% (mean)", "plan ms"},
		Notes:  "balance quality degrades as sigma grows; the paper binary-searched sigma per run",
	}
	for _, sigma := range []float64{0.005, 0.01, 0.05, 0.1, 0.2, 0.5} {
		sim := newPlanSim(20000, defZ, defF, defND, 1, 83)
		p := readj.Planner{Sigma: sigma}
		runPlanner(sim, p, defCfg(), 1)
		pm := runPlanner(sim, p, defCfg(), sweepRounds)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.3f", sigma),
			fmt.Sprintf("%.4f", pm.MaxTheta),
			f2(pm.MigPct),
			ms(pm.GenTime),
		})
	}
	return r
}
