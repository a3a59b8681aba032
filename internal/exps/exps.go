// Package exps regenerates every table and figure of the paper's evaluation
// (§5) on the modeled platforms. Each experiment returns a structured result
// with a text renderer; cmd/aidbench prints each as one `-exp` table, and its
// TestExpGolden pins every table byte for byte.
//
// Experiment index (each Run function's comment has the paper section it
// reproduces and what it varies; the aidbench -exp name is on the right):
//
//	Fig1       EP execution traces, static schedule, 2B-2S vs 4S      fig1
//	Fig2       per-loop offline SF, BT and CG, Platforms A and B      fig2
//	Fig4       EP traces under AID-static and AID-hybrid(80%)         fig4
//	Fig6/Fig7  normalized performance, 21 apps x 7 schemes, A/B       fig6, fig7
//	Table2     mean/gmean AID gains over the schemes they replace     table2
//	Fig8       chunk sensitivity of dynamic and AID-dynamic           fig8
//	Fig9       AID-static vs AID-static(offline-SF) vs AID-hybrid     fig9
//	Fig9c      blackscholes estimated-vs-offline SF per loop instance fig9c
//	Guided     guided vs static/dynamic (§5, text)                    guided
//	HybridPct  AID-hybrid percentage sensitivity (§5B, text)          hybridpct
//	Zoo        makespan and energy per registry platform x scheme     zoo
//	Ablation   each AID design choice taken away, 21 apps, A and B    ablation
//
// # How a sweep runs
//
// An experiment that walks a grid — applications x schemes, platforms x
// schemes, platforms x applications — numbers its cells and hands them to
// sweep (sweep.go), which runs them on every CPU the process may use and no
// more: min(GOMAXPROCS, max(NumCPU, 2), cells) workers, the caller among them,
// each claiming the next unclaimed cell off one atomic counter until none is
// left, the paper's dynamic,1. A cell computes without blocking, so a worker
// past the host's CPUs would only take turns with the others (a process may
// set GOMAXPROCS above NumCPU); the floor of two keeps the sweep concurrent,
// and so under the race detector's eye, on a one-CPU host. A cell is a
// simulation in virtual time (one sim.RunProgram on the apps x schemes grid,
// one sim.RunLoop in the zoo, a series of single-thread loops in Fig. 2);
// cells cost between microseconds and tens of milliseconds of host time,
// which is why they are not dealt out in equal blocks. With one
// worker the same code is a plain loop on the caller's goroutine, so there is
// no second, serial path. Fig9c is the one experiment that is not a grid: each
// invocation starts where the previous one ended.
//
// Three rules make the outcome independent of the worker count and of the
// order the cells happen to finish in. A cell's result is stored at the
// cell's index and the tables are assembled from that array afterwards, never
// in completion order. The error returned is that of the lowest failing
// index. And cells share only what none of them writes: the platform, the
// workloads' programs and cost models; everything a cell mutates — its
// sim.Config with the scheduler factory, hence the engine's workspace, the
// schedulers and their pools — it builds itself. A new experiment keeps the
// third rule by constructing its Config inside the cell.
package exps

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Scheme is one column of Figs. 6/7: a schedule plus a binding convention.
type Scheme struct {
	Label   string
	Sched   core.Schedule
	Binding amp.Binding
	// factory, when set, builds the scheduler in place of Sched: a variant
	// no schedule text names (the ablation table's, aidDynamic).
	factory sim.SchedulerFactory
}

// Fig6Schemes returns the seven schemes of Figs. 6 and 7 in the legend's
// order. All AID variants use BS, as §4.3 requires; static and dynamic are
// evaluated under both bindings to isolate the serial-phase effect (§5A).
func Fig6Schemes() []Scheme {
	return []Scheme{
		{Label: "static(SB)", Sched: core.Schedule{Kind: core.KindStatic}, Binding: amp.BindSB},
		{Label: "static(BS)", Sched: core.Schedule{Kind: core.KindStatic}, Binding: amp.BindBS},
		{Label: "dynamic(SB)", Sched: core.Schedule{Kind: core.KindDynamic}, Binding: amp.BindSB},
		{Label: "dynamic(BS)", Sched: core.Schedule{Kind: core.KindDynamic}, Binding: amp.BindBS},
		{Label: "AID-static", Sched: core.Schedule{Kind: core.KindAIDStatic}, Binding: amp.BindBS},
		{Label: "AID-hybrid", Sched: core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.80}, Binding: amp.BindBS},
		{Label: "AID-dynamic", Sched: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}, Binding: amp.BindBS},
	}
}

// AppTimes holds one application's completion time under every scheme.
type AppTimes struct {
	App   string
	Suite string
	// TimeNs maps scheme label to virtual completion time.
	TimeNs map[string]float64
}

// NormPerf returns the application's normalized performance for a scheme:
// baseline time / scheme time, with static(SB) as the baseline (higher is
// better), exactly as Figs. 6 and 7 plot it.
func (a AppTimes) NormPerf(label string) float64 {
	return a.TimeNs["static(SB)"] / a.TimeNs[label]
}

// FigResult is the outcome of a Fig. 6/7-style sweep.
type FigResult struct {
	Platform string
	Schemes  []Scheme
	Apps     []AppTimes
}

// RunFig6 regenerates Fig. 6 (Platform A) or Fig. 7 (Platform B): all 21
// applications under the seven schemes, normalized to static(SB).
func RunFig6(pl *amp.Platform) (FigResult, error) {
	schemes, apps := Fig6Schemes(), workloads.All()
	ns, err := runGrid(pl, apps, schemes)
	if err != nil {
		return FigResult{}, err
	}
	out := FigResult{Platform: pl.Name, Schemes: schemes}
	for a, w := range apps {
		at := AppTimes{App: w.Name, Suite: w.Suite, TimeNs: make(map[string]float64, len(schemes))}
		for i, s := range schemes {
			at.TimeNs[s.Label] = ns[a][i]
		}
		out.Apps = append(out.Apps, at)
	}
	return out, nil
}

// Render prints the figure as an aligned table of normalized performance.
func (f FigResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Normalized performance (baseline static(SB)) — Platform %s\n", f.Platform)
	fmt.Fprintf(&b, "%-16s", "app")
	for _, s := range f.Schemes {
		fmt.Fprintf(&b, "%14s", s.Label)
	}
	b.WriteByte('\n')
	suite := ""
	for _, a := range f.Apps {
		if a.Suite != suite {
			suite = a.Suite
			fmt.Fprintf(&b, "-- %s --\n", suite)
		}
		fmt.Fprintf(&b, "%-16s", a.App)
		for _, s := range f.Schemes {
			fmt.Fprintf(&b, "%14.3f", a.NormPerf(s.Label))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated values (normalized performance).
func (f FigResult) CSV() string {
	var b strings.Builder
	b.WriteString("app,suite")
	for _, s := range f.Schemes {
		b.WriteString(",")
		b.WriteString(s.Label)
	}
	b.WriteByte('\n')
	for _, a := range f.Apps {
		fmt.Fprintf(&b, "%s,%s", a.App, a.Suite)
		for _, s := range f.Schemes {
			fmt.Fprintf(&b, ",%.4f", a.NormPerf(s.Label))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table2Row is one comparison line of Table 2.
type Table2Row struct {
	Comparison string
	// MeanPct and GmeanPct per platform name.
	MeanPct  map[string]float64
	GmeanPct map[string]float64
}

// Table2 aggregates the AID gains of Table 2 from Fig. 6/7 results.
type Table2 struct {
	Platforms []string
	Rows      []Table2Row
}

// RunTable2 computes Table 2 from the two figure sweeps.
func RunTable2(figs ...FigResult) Table2 {
	t := Table2{}
	comparisons := []struct{ name, a, b string }{
		{"AID-static vs. static(BS)", "static(BS)", "AID-static"},
		{"AID-hybrid vs. static(BS)", "static(BS)", "AID-hybrid"},
		{"AID-dynamic vs. dynamic(BS)", "dynamic(BS)", "AID-dynamic"},
	}
	for _, c := range comparisons {
		row := Table2Row{
			Comparison: c.name,
			MeanPct:    map[string]float64{},
			GmeanPct:   map[string]float64{},
		}
		t.Rows = append(t.Rows, row)
	}
	for _, f := range figs {
		t.Platforms = append(t.Platforms, f.Platform)
		for i, c := range comparisons {
			var base, aid []float64
			for _, a := range f.Apps {
				base = append(base, a.TimeNs[c.a])
				aid = append(aid, a.TimeNs[c.b])
			}
			t.Rows[i].MeanPct[f.Platform] = stats.MeanGainPct(base, aid)
			t.Rows[i].GmeanPct[f.Platform] = stats.GeoMeanGainPct(base, aid)
		}
	}
	return t
}

// Render prints Table 2 in the paper's layout.
func (t Table2) Render() string {
	var b strings.Builder
	b.WriteString("Table 2: Relative performance gains of the different AID variants\n")
	fmt.Fprintf(&b, "%-32s", "Loop-scheduling schemes")
	for range t.Platforms {
		fmt.Fprintf(&b, "%12s%12s", "Mean", "Gmean")
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-32s", "")
	for _, p := range t.Platforms {
		label := p
		if i := strings.IndexByte(label, ' '); i > 0 {
			label = label[:i]
		}
		fmt.Fprintf(&b, "%24s", "Platform "+label)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-32s", r.Comparison)
		for _, p := range t.Platforms {
			fmt.Fprintf(&b, "%11.2f%%%11.2f%%", r.MeanPct[p], r.GmeanPct[p])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GuidedResult summarizes the guided-schedule comparison (§5, text): the
// average completion-time increase of guided relative to static and dynamic,
// and whether guided ever beats both.
type GuidedResult struct {
	Platform         string
	VsStaticPct      float64 // average completion-time increase vs static(BS)
	VsDynamicPct     float64 // vs dynamic(BS)
	EverBeatsBothFor []string
}

// RunGuided runs the guided-schedule comparison. The paper reports guided
// increasing completion time by 44% and 65% on average relative to static
// and dynamic, never outperforming both for any program.
//
// KNOWN DEVIATION: our abstract overhead model does not
// reproduce guided's catastrophic slowdown. In the model, guided
// behaves like an adaptive schedule with few pool accesses and lands
// *between* static and dynamic. The paper gives no mechanism for guided's
// collapse; reproducing it would require implementation-specific detail of
// libgomp's guided path (e.g. lock-based chunk computation or
// cross-invocation cache-reuse destruction) that the model deliberately
// abstracts away. We report what the model produces and flag the mismatch
// rather than force the number.
func RunGuided(pl *amp.Platform) (GuidedResult, error) {
	schemes := []Scheme{
		{Label: "static(BS)", Sched: core.Schedule{Kind: core.KindStatic}, Binding: amp.BindBS},
		{Label: "dynamic(BS)", Sched: core.Schedule{Kind: core.KindDynamic}, Binding: amp.BindBS},
		{Label: "guided(BS)", Sched: core.Schedule{Kind: core.KindGuided}, Binding: amp.BindBS},
	}
	apps := workloads.All()
	ns, err := runGrid(pl, apps, schemes)
	if err != nil {
		return GuidedResult{}, err
	}
	res := GuidedResult{Platform: pl.Name}
	var incStatic, incDynamic []float64
	for a, w := range apps {
		st, dy, g := ns[a][0], ns[a][1], ns[a][2]
		incStatic = append(incStatic, (g/st-1)*100)
		incDynamic = append(incDynamic, (g/dy-1)*100)
		if g < st && g < dy {
			res.EverBeatsBothFor = append(res.EverBeatsBothFor, w.Name)
		}
	}
	res.VsStaticPct = stats.Mean(incStatic)
	res.VsDynamicPct = stats.Mean(incDynamic)
	return res, nil
}

// Render prints the guided summary.
func (g GuidedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guided vs conventional schedules — Platform %s\n", g.Platform)
	fmt.Fprintf(&b, "avg completion-time increase vs static(BS):  %+.1f%%\n", g.VsStaticPct)
	fmt.Fprintf(&b, "avg completion-time increase vs dynamic(BS): %+.1f%%\n", g.VsDynamicPct)
	if len(g.EverBeatsBothFor) == 0 {
		b.WriteString("guided never outperforms both static and dynamic for any program\n")
	} else {
		fmt.Fprintf(&b, "guided beats both for: %s\n", strings.Join(g.EverBeatsBothFor, ", "))
	}
	return b.String()
}

// HybridPctResult is the §5B sensitivity study over AID-hybrid's percentage.
type HybridPctResult struct {
	Platform string
	Pcts     []int
	// GmeanNorm maps pct to the geometric-mean normalized performance
	// (vs static(BS)) across applications.
	GmeanNorm map[int]float64
	// PerApp maps app -> pct -> normalized performance.
	PerApp map[string]map[int]float64
	// Best maps app name to its best percentage.
	Best map[string]int
}

// RunHybridPct sweeps the AID-hybrid percentage. The paper finds the best
// value is application specific — dynamic-friendly programs prefer ~60%,
// AID-static-friendly ones 90%+ — with 80% a good overall trade-off.
func RunHybridPct(pl *amp.Platform, apps []workloads.Workload) (HybridPctResult, error) {
	pcts := []int{50, 60, 70, 80, 90, 95, 100}
	out := HybridPctResult{
		Platform:  pl.Name,
		Pcts:      pcts,
		GmeanNorm: map[int]float64{},
		PerApp:    map[string]map[int]float64{},
		Best:      map[string]int{},
	}
	// Column 0 is the baseline, column 1+i is pcts[i].
	schemes := []Scheme{{Label: "static(BS)", Sched: core.Schedule{Kind: core.KindStatic}, Binding: amp.BindBS}}
	for _, pct := range pcts {
		schemes = append(schemes, Scheme{
			Label:   fmt.Sprintf("AID-hybrid(%d%%)", pct),
			Sched:   core.Schedule{Kind: core.KindAIDHybrid, Pct: float64(pct) / 100},
			Binding: amp.BindBS,
		})
	}
	ns, err := runGrid(pl, apps, schemes)
	if err != nil {
		return HybridPctResult{}, err
	}
	norms := map[int][]float64{}
	for a, w := range apps {
		out.PerApp[w.Name] = map[int]float64{}
		bestPct, bestNorm := 0, 0.0
		for i, pct := range pcts {
			norm := ns[a][0] / ns[a][1+i]
			out.PerApp[w.Name][pct] = norm
			norms[pct] = append(norms[pct], norm)
			if norm > bestNorm {
				bestNorm, bestPct = norm, pct
			}
		}
		out.Best[w.Name] = bestPct
	}
	for _, pct := range pcts {
		out.GmeanNorm[pct] = stats.GeoMean(norms[pct])
	}
	return out, nil
}

// Render prints the percentage sweep.
func (h HybridPctResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AID-hybrid percentage sensitivity — Platform %s\n", h.Platform)
	fmt.Fprintf(&b, "%-16s", "app")
	for _, p := range h.Pcts {
		fmt.Fprintf(&b, "%8d%%", p)
	}
	fmt.Fprintf(&b, "%8s\n", "best")
	apps := make([]string, 0, len(h.PerApp))
	for name := range h.PerApp {
		apps = append(apps, name)
	}
	sort.Strings(apps)
	for _, name := range apps {
		fmt.Fprintf(&b, "%-16s", name)
		for _, p := range h.Pcts {
			fmt.Fprintf(&b, "%9.3f", h.PerApp[name][p])
		}
		fmt.Fprintf(&b, "%7d%%\n", h.Best[name])
	}
	fmt.Fprintf(&b, "%-16s", "gmean")
	for _, p := range h.Pcts {
		fmt.Fprintf(&b, "%9.3f", h.GmeanNorm[p])
	}
	b.WriteByte('\n')
	return b.String()
}
