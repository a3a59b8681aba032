package exps

import (
	"fmt"
	"strings"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TraceResult bundles the record of one traced loop, timeline included,
// with its completion time.
type TraceResult struct {
	Title        string
	Record       *trace.Record
	CompletionNs int64
}

// Render draws the record's timeline with 88 columns.
func (tr TraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (completion: %d ns)\n", tr.Title, tr.CompletionNs)
	b.WriteString(tr.Record.Render(88))
	return b.String()
}

// platformA2B2S builds the 2-big/2-small configuration of Fig. 1a from the
// Platform A core types (the paper restricts EP to four cores there).
func platformA2B2S() (*amp.Platform, error) {
	base := amp.PlatformA()
	cl := append([]amp.Cluster(nil), base.Clusters...)
	cl[0].NumCores = 2
	cl[1].NumCores = 2
	return amp.New("A-2B2S", cl, base.Overhead)
}

// epMainLoop extracts EP's single parallel loop.
func epMainLoop() sim.LoopSpec {
	w, _ := workloads.ByName("EP")
	loops := w.Program.Loops()
	return loops[0]
}

// TraceLoop runs one loop under a scheme and records it with its timeline.
func TraceLoop(pl *amp.Platform, nthreads int, s Scheme, spec sim.LoopSpec, title string) (TraceResult, error) {
	rec := trace.NewTimedRecorder()
	cfg := sim.Config{
		Platform: pl,
		NThreads: nthreads,
		Binding:  s.Binding,
		Factory:  s.Sched.Factory(),
		Recorder: rec,
	}
	res, err := sim.RunLoop(cfg, spec, 0)
	if err != nil {
		return TraceResult{}, err
	}
	return TraceResult{Title: title, Record: rec.Record(), CompletionNs: res.End - res.Start}, nil
}

// RunFig1 regenerates Fig. 1: EP under static with 4 threads on (a) two big
// plus two small cores and (b) four small cores. The paper's observation:
// the two traces complete in nearly the same time because static's even
// split leaves the loop bounded by the small cores, wasting the big ones.
func RunFig1() (a, b TraceResult, err error) {
	spec := epMainLoop()
	mixed, err := platformA2B2S()
	if err != nil {
		return TraceResult{}, TraceResult{}, err
	}
	st := Scheme{Sched: core.Schedule{Kind: core.KindStatic}, Binding: amp.BindBS}
	a, err = TraceLoop(mixed, 4, st, spec, "Fig 1a: EP, static, 2B-2S")
	if err != nil {
		return TraceResult{}, TraceResult{}, err
	}
	// 4 threads under SB on the full platform occupy CPUs 0-3: four small.
	st.Binding = amp.BindSB
	b, err = TraceLoop(amp.PlatformA(), 4, st, spec, "Fig 1b: EP, static, 4S")
	if err != nil {
		return TraceResult{}, TraceResult{}, err
	}
	return a, b, nil
}

// Fig2Series is the per-loop SF series of one application on one platform.
type Fig2Series struct {
	App      string
	Platform string
	// SF[i] is the offline speedup factor of the application's i-th loop.
	SF []float64
}

// Render prints the series.
func (s Fig2Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: per-loop offline SF — %s on Platform %s\n", s.App, s.Platform)
	for i, sf := range s.SF {
		fmt.Fprintf(&b, "loop %2d  SF %5.2f  %s\n", i, sf, strings.Repeat("*", int(sf*4+0.5)))
	}
	return b.String()
}

// RunFig2 measures the offline SF of the first 30 loops of BT and CG on
// both platforms, using the paper's method (§2): single-thread runs on a
// big and a small core, ratio of completion times. Expected shapes: wide SF
// spread on Platform A (up to ~7.7), narrow band (~1.7-2.3) on Platform B.
func RunFig2() ([]Fig2Series, error) {
	platforms := []*amp.Platform{amp.PlatformA(), amp.PlatformB()}
	apps, err := appsNamed([]string{"BT", "CG"})
	if err != nil {
		return nil, err
	}
	// One cell per series, platform-major.
	return sweep(len(platforms)*len(apps), func(i int) (Fig2Series, error) {
		pl, w := platforms[i/len(apps)], apps[i%len(apps)]
		loops := w.Program.Loops()
		if len(loops) > 30 {
			loops = loops[:30]
		}
		s := Fig2Series{App: w.Name, Platform: pl.Name}
		for _, spec := range loops {
			sf, err := sim.MeasureLoopSF(pl, spec)
			if err != nil {
				return Fig2Series{}, err
			}
			s.SF = append(s.SF, sf)
		}
		return s, nil
	})
}

// RunFig4 regenerates Fig. 4: EP's loop with 8 threads on Platform A under
// AID-static and AID-hybrid(80%). The paper's observation: AID-static's
// sampled SF is not representative of the whole loop, leaving residual
// imbalance; AID-hybrid's dynamic tail absorbs it (~10% better).
func RunFig4() (aidStatic, aidHybrid TraceResult, err error) {
	spec := epMainLoop()
	pl := amp.PlatformA()
	aidStatic, err = TraceLoop(pl, 8,
		Scheme{Sched: core.Schedule{Kind: core.KindAIDStatic}, Binding: amp.BindBS},
		spec, "Fig 4a: EP, AID-static, 8 threads")
	if err != nil {
		return TraceResult{}, TraceResult{}, err
	}
	aidHybrid, err = TraceLoop(pl, 8,
		Scheme{Sched: core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.80}, Binding: amp.BindBS},
		spec, "Fig 4b: EP, AID-hybrid(80%), 8 threads")
	if err != nil {
		return TraceResult{}, TraceResult{}, err
	}
	return aidStatic, aidHybrid, nil
}

// Fig8Result is the chunk-sensitivity sweep of §5B.
type Fig8Result struct {
	Platform string
	Apps     []string
	// DynChunks are the dynamic chunk values swept; AIDMajors the Major
	// chunk values for AID-dynamic (minor chunk fixed at 1).
	DynChunks []int64
	AIDMajors []int64
	// Norm maps "scheme/chunk" label -> app -> normalized performance
	// (vs static(BS), matching Fig. 8's baseline bar).
	Norm map[string]map[string]float64
}

// Fig8Apps lists the applications of Fig. 8 (those that benefit from
// distributing iterations dynamically, §5B).
func Fig8Apps() []string {
	return []string{"BT", "EP", "FT", "MG", "bodytrack", "heartwall",
		"hotspot3D", "lavamd", "leukocyte", "particlefilter", "sradv1"}
}

// RunFig8 sweeps dynamic's chunk and AID-dynamic's Major chunk on Platform
// A. Expected shapes: large dynamic chunks degrade performance through
// end-of-loop imbalance; AID-dynamic's tail switch makes it far less
// sensitive to the Major chunk choice.
func RunFig8() (Fig8Result, error) {
	pl := amp.PlatformA()
	out := Fig8Result{
		Platform:  pl.Name,
		Apps:      Fig8Apps(),
		DynChunks: []int64{1, 2, 4, 5, 10, 15, 20, 25, 30},
		AIDMajors: []int64{1, 2, 4, 5, 10, 15, 20, 25, 30, 35},
		Norm:      map[string]map[string]float64{},
	}
	schemes := []Scheme{{Label: "static(BS)", Sched: core.Schedule{Kind: core.KindStatic}, Binding: amp.BindBS}}
	for _, c := range out.DynChunks {
		schemes = append(schemes, Scheme{
			Label:   fmt.Sprintf("dynamic(BS)/%d", c),
			Sched:   core.Schedule{Kind: core.KindDynamic, Chunk: c},
			Binding: amp.BindBS,
		})
	}
	for _, m := range out.AIDMajors {
		schemes = append(schemes, Scheme{
			Label:   fmt.Sprintf("AID-dynamic/1,%d", m),
			Sched:   core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: m},
			Binding: amp.BindBS,
		})
	}
	apps, err := appsNamed(out.Apps)
	if err != nil {
		return Fig8Result{}, err
	}
	ns, err := runGrid(pl, apps, schemes)
	if err != nil {
		return Fig8Result{}, err
	}
	for i, s := range schemes {
		out.Norm[s.Label] = map[string]float64{}
		for a, w := range apps {
			out.Norm[s.Label][w.Name] = ns[a][0] / ns[a][i] // schemes[0] is the baseline
		}
	}
	return out, nil
}

// Labels returns the scheme labels of the sweep in presentation order.
func (f Fig8Result) Labels() []string {
	labels := []string{"static(BS)"}
	for _, c := range f.DynChunks {
		labels = append(labels, fmt.Sprintf("dynamic(BS)/%d", c))
	}
	for _, m := range f.AIDMajors {
		labels = append(labels, fmt.Sprintf("AID-dynamic/1,%d", m))
	}
	return labels
}

// Render prints the sweep as a table with one row per scheme/chunk setting.
func (f Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: chunk sensitivity, normalized performance vs static(BS) — Platform %s\n", f.Platform)
	fmt.Fprintf(&b, "%-20s", "scheme/chunk")
	for _, a := range f.Apps {
		fmt.Fprintf(&b, "%15s", a)
	}
	b.WriteByte('\n')
	for _, label := range f.Labels() {
		fmt.Fprintf(&b, "%-20s", label)
		for _, a := range f.Apps {
			fmt.Fprintf(&b, "%15.3f", f.Norm[label][a])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig9Apps lists the applications of Fig. 9 (those where AID-static or
// AID-hybrid is comparable to or better than AID-dynamic, §5C).
func Fig9Apps() []string {
	return []string{"CG", "IS", "LU", "blackscholes", "bodytrack",
		"streamcluster", "bfs", "hotspot3D", "sradv1", "sradv2"}
}

// Fig9Result compares AID-static against its offline-SF variant and
// AID-hybrid on one platform.
type Fig9Result struct {
	Platform string
	Apps     []string
	// Norm maps scheme label -> app -> normalized performance vs
	// static(SB), the same baseline as Figs. 6/7.
	Norm map[string]map[string]float64
}

// runOfflineSF executes one workload under AID-static fed with offline SF:
// each loop's SF is measured single-threaded first (sim.MeasureLoopSF) and
// handed to that loop's scheduler — mirroring how the paper feeds
// offline-collected per-loop SF values to the runtime (§5C).
func runOfflineSF(pl *amp.Platform, w workloads.Workload) (float64, error) {
	table := map[string][]float64{}
	for _, spec := range w.Program.Loops() {
		sf, err := sim.MeasureLoopSF(pl, spec)
		if err != nil {
			return 0, err
		}
		// Two core types: [bigSF, 1] relative to the small (slowest) type.
		table[spec.Name] = []float64{sf, 1}
	}
	res, err := sim.RunProgram(sim.Config{
		Platform: pl,
		NThreads: pl.NumCores(),
		Binding:  amp.BindBS,
		FactoryNamed: func(loopName string, info core.LoopInfo) (core.Scheduler, error) {
			sf, ok := table[loopName]
			if !ok {
				return nil, fmt.Errorf("exps: no offline SF for loop %q", loopName)
			}
			return core.NewAIDStaticOffline(info, 1, sf)
		},
	}, w.Program)
	if err != nil {
		return 0, err
	}
	return float64(res.TotalNs), nil
}

// RunFig9 regenerates Figs. 9a/9b on the given platform. The expected
// shapes: AID-static tracks AID-static(offline-SF) within a few percent for
// most programs, and on Platform A the offline variant *loses* badly for
// blackscholes because offline SF ignores LLC contention (§5C).
func RunFig9(pl *amp.Platform) (Fig9Result, error) {
	out := Fig9Result{Platform: pl.Name, Apps: Fig9Apps(), Norm: map[string]map[string]float64{}}
	apps, err := appsNamed(out.Apps)
	if err != nil {
		return Fig9Result{}, err
	}
	schemes := []Scheme{
		{Label: "static(SB)", Sched: core.Schedule{Kind: core.KindStatic}, Binding: amp.BindSB},
		{Label: "AID-static", Sched: core.Schedule{Kind: core.KindAIDStatic}, Binding: amp.BindBS},
		{Label: "AID-hybrid", Sched: core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.80}, Binding: amp.BindBS},
	}
	// An application's last cell is the offline-SF variant, which is no
	// Scheme: its factory depends on the workload.
	cols := len(schemes) + 1
	ns, err := sweep(len(apps)*cols, func(i int) (float64, error) {
		w, c := apps[i/cols], i%cols
		if c < len(schemes) {
			return runApp(pl, w, schemes[c])
		}
		return runOfflineSF(pl, w)
	})
	if err != nil {
		return Fig9Result{}, err
	}
	for c, label := range []string{"AID-static", "AID-hybrid", "AID-static(offline-SF)"} {
		out.Norm[label] = map[string]float64{}
		for a, w := range apps {
			out.Norm[label][w.Name] = ns[a*cols] / ns[a*cols+1+c] // column 0 is the baseline
		}
	}
	return out, nil
}

// Render prints the Fig. 9 comparison.
func (f Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9: impact of SF-estimation accuracy — Platform %s (normalized vs static(SB))\n", f.Platform)
	labels := []string{"AID-static", "AID-static(offline-SF)", "AID-hybrid"}
	fmt.Fprintf(&b, "%-16s", "app")
	for _, l := range labels {
		fmt.Fprintf(&b, "%24s", l)
	}
	b.WriteByte('\n')
	for _, a := range f.Apps {
		fmt.Fprintf(&b, "%-16s", a)
		for _, l := range labels {
			fmt.Fprintf(&b, "%24.3f", f.Norm[l][a])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig9cResult contrasts offline-collected and online-estimated SF for
// blackscholes' pricing loop across its invocations on Platform A.
type Fig9cResult struct {
	// OfflineSF is the single-thread measured SF (constant per invocation).
	OfflineSF []float64
	// EstimatedSF is the sampling-phase estimate of each invocation under
	// the full 8-thread run.
	EstimatedSF []float64
}

// RunFig9c regenerates Fig. 9c. Expected shape: the offline series sits far
// above the estimated series, because single-thread measurement misses the
// LLC contention that compresses big-core advantage at run time (§5C: LLC
// misses per 1K instructions grow 3.6x from 1 to 8 threads).
func RunFig9c(invocations int) (Fig9cResult, error) {
	pl := amp.PlatformA()
	w, _ := workloads.ByName("blackscholes")
	var spec sim.LoopSpec
	for _, l := range w.Program.Loops() {
		if l.Name == "bs-price" {
			spec = l
		}
	}
	if spec.Name == "" {
		return Fig9cResult{}, fmt.Errorf("exps: bs-price loop not found")
	}
	offline, err := sim.MeasureLoopSF(pl, spec)
	if err != nil {
		return Fig9cResult{}, err
	}
	out := Fig9cResult{}
	// Collect the online estimate per invocation by capturing the
	// AID-static scheduler instance built for each loop execution.
	var captured []*core.AIDHybrid
	cfg := sim.Config{
		Platform: pl,
		NThreads: 8,
		Binding:  amp.BindBS,
		Factory: func(info core.LoopInfo) (core.Scheduler, error) {
			s, err := core.NewAIDStatic(info, 1)
			if err != nil {
				return nil, err
			}
			captured = append(captured, s)
			return s, nil
		},
	}
	cursor := int64(0)
	for i := 0; i < invocations; i++ {
		res, err := sim.RunLoop(cfg, spec, cursor)
		if err != nil {
			return Fig9cResult{}, err
		}
		cursor = res.End
	}
	for _, s := range captured {
		sf, ok := s.SFEstimate()
		if !ok {
			continue
		}
		out.EstimatedSF = append(out.EstimatedSF, sf[0])
		out.OfflineSF = append(out.OfflineSF, offline)
	}
	return out, nil
}

// Render prints both series.
func (f Fig9cResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 9c: blackscholes per-invocation SF on Platform A\n")
	b.WriteString("invocation  offline-SF  estimated-SF\n")
	for i := range f.EstimatedSF {
		fmt.Fprintf(&b, "%10d  %10.2f  %12.2f\n", i, f.OfflineSF[i], f.EstimatedSF[i])
	}
	return b.String()
}
