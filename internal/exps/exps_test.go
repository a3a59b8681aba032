package exps

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/amp"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// The Fig. 6 and Fig. 7 sweeps most tests read are run once, by the first
// test that asks: a test selected with -run pays only for what it reads, and
// a sweep's error fails the tests that asked for it.
var (
	sweepA = sync.OnceValues(func() (FigResult, error) { return RunFig6(amp.PlatformA()) })
	sweepB = sync.OnceValues(func() (FigResult, error) { return RunFig6(amp.PlatformB()) })
)

func mustFig(t *testing.T, sweep func() (FigResult, error)) FigResult {
	t.Helper()
	f, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFig6Shape(t *testing.T) {
	figA := mustFig(t, sweepA)
	if len(figA.Apps) != 21 {
		t.Fatalf("Fig 6 covers %d apps, want 21", len(figA.Apps))
	}
	if len(figA.Schemes) != 7 {
		t.Fatalf("Fig 6 has %d schemes, want 7", len(figA.Schemes))
	}
	for _, a := range figA.Apps {
		if got := a.NormPerf("static(SB)"); got != 1.0 {
			t.Errorf("%s: baseline normalized performance = %v, want 1", a.App, got)
		}
		for _, s := range figA.Schemes {
			v := a.NormPerf(s.Label)
			if v <= 0 || v > 10 {
				t.Errorf("%s under %s: normalized perf %v out of sane range", a.App, s.Label, v)
			}
		}
	}
}

// TestAIDStaticOutperformsStaticAcrossTheBoard asserts the paper's central
// claim (§5A): "AID-static outperforms static for the vast majority of
// workloads". particlefilter and leukocyte are the documented exceptions
// (rising/uneven cost hands AID-static the same problem as static(BS)).
func TestAIDStaticOutperformsStaticAcrossTheBoard(t *testing.T) {
	figA, figB := mustFig(t, sweepA), mustFig(t, sweepB)
	for _, fig := range []FigResult{figA, figB} {
		wins := 0
		for _, a := range fig.Apps {
			if a.NormPerf("AID-static") > a.NormPerf("static(BS)")*0.99 {
				wins++
			}
		}
		if wins < 18 {
			t.Errorf("%s: AID-static >= static(BS) for only %d/21 apps", fig.Platform, wins)
		}
	}
}

func TestAIDHybridBeatsAIDStaticOnAverage(t *testing.T) {
	figA, figB := mustFig(t, sweepA), mustFig(t, sweepB)
	for _, fig := range []FigResult{figA, figB} {
		var better int
		for _, a := range fig.Apps {
			if a.NormPerf("AID-hybrid") >= a.NormPerf("AID-static")*0.98 {
				better++
			}
		}
		if better < 15 {
			t.Errorf("%s: AID-hybrid >= AID-static for only %d/21 apps", fig.Platform, better)
		}
	}
}

// TestDynamicDisasters asserts the documented dynamic(1) pathologies: CG,
// IS, blackscholes and bfs suffer under dynamic on Platform A (§5A).
func TestDynamicDisasters(t *testing.T) {
	figA := mustFig(t, sweepA)
	for _, app := range []string{"CG", "IS", "blackscholes", "bfs"} {
		for _, a := range figA.Apps {
			if a.App != app {
				continue
			}
			if v := a.NormPerf("dynamic(SB)"); v >= 1.0 {
				t.Errorf("%s: dynamic(SB) normalized perf %v, expected < 1 (overhead)", app, v)
			}
		}
	}
}

// TestCGDynamicBlowupPlatformB asserts the paper's most extreme overhead
// case: CG slows down by up to 2.86x under dynamic on Platform B.
func TestCGDynamicBlowupPlatformB(t *testing.T) {
	figB := mustFig(t, sweepB)
	for _, a := range figB.Apps {
		if a.App != "CG" {
			continue
		}
		slowdown := 1 / a.NormPerf("dynamic(BS)")
		if slowdown < 1.4 {
			t.Errorf("CG dynamic(BS) slowdown on B = %.2fx, want substantial (paper: 2.86x)", slowdown)
		}
	}
}

// TestDynamicFriendlyApps asserts that FT, leukocyte and particlefilter
// benefit from dynamic relative to static under the same binding (§5A).
func TestDynamicFriendlyApps(t *testing.T) {
	figA := mustFig(t, sweepA)
	for _, app := range []string{"FT", "leukocyte", "particlefilter"} {
		for _, a := range figA.Apps {
			if a.App != app {
				continue
			}
			if a.NormPerf("dynamic(BS)") <= a.NormPerf("static(BS)") {
				t.Errorf("%s: dynamic(BS) (%v) should beat static(BS) (%v)",
					app, a.NormPerf("dynamic(BS)"), a.NormPerf("static(BS)"))
			}
		}
	}
}

// TestParticleFilterInversion asserts the static(BS) < static(SB) anomaly.
func TestParticleFilterInversion(t *testing.T) {
	figA := mustFig(t, sweepA)
	for _, a := range figA.Apps {
		if a.App != "particlefilter" {
			continue
		}
		if a.NormPerf("static(BS)") >= 1.0 {
			t.Errorf("particlefilter static(BS) = %v, expected < 1 (§5A inversion)", a.NormPerf("static(BS)"))
		}
	}
}

func TestTable2SignsAndMagnitudes(t *testing.T) {
	figA, figB := mustFig(t, sweepA), mustFig(t, sweepB)
	tab := RunTable2(figA, figB)
	if len(tab.Rows) != 3 || len(tab.Platforms) != 2 {
		t.Fatalf("Table 2 shape: %d rows, %d platforms", len(tab.Rows), len(tab.Platforms))
	}
	for _, r := range tab.Rows {
		for _, p := range tab.Platforms {
			if r.MeanPct[p] <= 0 {
				t.Errorf("%s on %s: mean gain %v%%, want positive", r.Comparison, p, r.MeanPct[p])
			}
			if r.MeanPct[p] > 60 {
				t.Errorf("%s on %s: mean gain %v%% implausibly high", r.Comparison, p, r.MeanPct[p])
			}
		}
	}
	// AID-hybrid's gains exceed AID-static's (its dynamic tail only helps).
	for _, p := range tab.Platforms {
		if tab.Rows[1].MeanPct[p] <= tab.Rows[0].MeanPct[p] {
			t.Errorf("on %s AID-hybrid gain (%v) should exceed AID-static gain (%v)",
				p, tab.Rows[1].MeanPct[p], tab.Rows[0].MeanPct[p])
		}
	}
	// The paper's platform asymmetry: AID-dynamic's advantage over dynamic
	// is small on A (3.1%) and large on B (22.3%).
	pa, pb := tab.Platforms[0], tab.Platforms[1]
	if tab.Rows[2].MeanPct[pb] <= tab.Rows[2].MeanPct[pa] {
		t.Errorf("AID-dynamic gain should be larger on B (%v) than on A (%v)",
			tab.Rows[2].MeanPct[pb], tab.Rows[2].MeanPct[pa])
	}
}

func TestRenderOutputs(t *testing.T) {
	figA, figB := mustFig(t, sweepA), mustFig(t, sweepB)
	out := figA.Render()
	for _, want := range []string{"static(SB)", "AID-dynamic", "streamcluster", "-- NPB --"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig render missing %q", want)
		}
	}
	csv := figA.CSV()
	if lines := strings.Count(csv, "\n"); lines != 22 {
		t.Errorf("CSV has %d lines, want 22 (header + 21 apps)", lines)
	}
	tab := RunTable2(figA, figB).Render()
	if !strings.Contains(tab, "AID-static vs. static(BS)") {
		t.Errorf("Table 2 render missing comparison row: %s", tab)
	}
}

func TestFig1Traces(t *testing.T) {
	a, b, err := RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	// The headline observation: 2B-2S and 4S complete within a few percent.
	ratio := float64(a.CompletionNs) / float64(b.CompletionNs)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("Fig 1: 2B-2S vs 4S completion ratio = %.3f, want ~1", ratio)
	}
	// The 2B-2S trace must show the big-core threads idling (imbalance).
	if imb := a.Record.Digest().ImbalancePct; imb < 25 {
		t.Errorf("Fig 1a imbalance = %.1f%%, expected heavy", imb)
	}
	if imb := b.Record.Digest().ImbalancePct; imb > 10 {
		t.Errorf("Fig 1b (symmetric) imbalance = %.1f%%, expected low", imb)
	}
	if !strings.Contains(a.Render(), "Fig 1a") {
		t.Error("Fig 1a render missing title")
	}
}

func TestFig2Series(t *testing.T) {
	series, err := RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("Fig 2 produced %d series, want 4 (BT/CG x A/B)", len(series))
	}
	for _, s := range series {
		if len(s.SF) != 30 {
			t.Errorf("%s on %s: %d loops, want 30", s.App, s.Platform, len(s.SF))
		}
		mn, mx := slices.Min(s.SF), slices.Max(s.SF)
		onA := strings.HasPrefix(s.Platform, "A")
		if onA {
			// Wide spread on the big.LITTLE platform (Fig 2a/2c).
			if mx < 3.0 {
				t.Errorf("%s on A: max SF %.2f, expected high-SF outliers", s.App, mx)
			}
			if mx/mn < 2.0 {
				t.Errorf("%s on A: SF spread %.2f-%.2f too narrow", s.App, mn, mx)
			}
		} else {
			// Narrow band on the emulated Xeon (Fig 2b/2d).
			if mx > 2.45 || mn < 1.5 {
				t.Errorf("%s on B: SF range [%.2f, %.2f] outside the paper's narrow band", s.App, mn, mx)
			}
		}
	}
}

func TestFig4HybridBeatsAIDStatic(t *testing.T) {
	as, ah, err := RunFig4()
	if err != nil {
		t.Fatal(err)
	}
	// Fig 4 story: AID-hybrid(80%) completes EP faster than AID-static
	// because the dynamic tail absorbs the SF drift (paper: 10.5% better).
	if ah.CompletionNs >= as.CompletionNs {
		t.Errorf("AID-hybrid (%d) should beat AID-static (%d) on EP", ah.CompletionNs, as.CompletionNs)
	}
	gain := float64(as.CompletionNs)/float64(ah.CompletionNs) - 1
	if gain > 0.30 {
		t.Errorf("AID-hybrid gain on EP = %.1f%%, implausibly high (paper: 10.5%%)", gain*100)
	}
	// The hybrid trace should end better balanced.
	if h, s := ah.Record.Digest().ImbalancePct, as.Record.Digest().ImbalancePct; h >= s {
		t.Errorf("hybrid imbalance (%.1f%%) should be below AID-static's (%.1f%%)", h, s)
	}
}

func TestGuidedComparisonRuns(t *testing.T) {
	// The paper's guided result (+44%/+65% vs static/dynamic) is a KNOWN
	// DEVIATION: the abstract overhead model does not reproduce guided's
	// collapse (see RunGuided's doc comment). This test
	// pins the *model's* behaviour so a future change that silently brings
	// guided to either extreme is noticed: guided must land between the
	// catastrophic and dominant extremes and never beat AID-hybrid overall.
	g, err := RunGuided(amp.PlatformA())
	if err != nil {
		t.Fatal(err)
	}
	if g.VsStaticPct < -60 || g.VsStaticPct > 80 {
		t.Errorf("guided vs static avg = %v%%, outside the pinned band", g.VsStaticPct)
	}
	if !strings.Contains(g.Render(), "guided") {
		t.Error("guided render malformed")
	}
}

func TestFig9OfflineSFComparison(t *testing.T) {
	f, err := RunFig9(amp.PlatformA())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Apps) != 10 {
		t.Fatalf("Fig 9 covers %d apps, want 10", len(f.Apps))
	}
	// AID-static should track the offline variant within a few percent for
	// most apps...
	within := 0
	for _, app := range f.Apps {
		on := f.Norm["AID-static"][app]
		off := f.Norm["AID-static(offline-SF)"][app]
		if on >= off*0.93 {
			within++
		}
	}
	if within < 7 {
		t.Errorf("AID-static within range of offline-SF for only %d/10 apps", within)
	}
	// ...and must clearly beat it for blackscholes on Platform A (§5C: the
	// offline SF ignores LLC contention).
	on := f.Norm["AID-static"]["blackscholes"]
	off := f.Norm["AID-static(offline-SF)"]["blackscholes"]
	if on <= off {
		t.Errorf("blackscholes on A: AID-static (%v) should beat offline-SF (%v)", on, off)
	}
	if !strings.Contains(f.Render(), "blackscholes") {
		t.Error("Fig 9 render malformed")
	}
}

func TestFig9cSFSeries(t *testing.T) {
	f, err := RunFig9c(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.EstimatedSF) < 35 {
		t.Fatalf("Fig 9c: only %d estimates collected", len(f.EstimatedSF))
	}
	// Offline SF sits far above the online estimates (Fig 9c's whole point).
	meanEst := stats.Mean(f.EstimatedSF)
	if f.OfflineSF[0] < meanEst*1.5 {
		t.Errorf("offline SF (%.2f) should far exceed mean estimated SF (%.2f)", f.OfflineSF[0], meanEst)
	}
	if !strings.Contains(f.Render(), "Fig 9c") {
		t.Error("Fig 9c render malformed")
	}
}

func TestHybridPctSweep(t *testing.T) {
	var wl []workloads.Workload
	for _, n := range []string{"FT", "leukocyte", "blackscholes", "streamcluster"} {
		w, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		wl = append(wl, w)
	}
	h, err := RunHybridPct(amp.PlatformA(), wl)
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic-friendly apps should prefer lower percentages than
	// AID-static-friendly ones (§5B).
	if h.Best["leukocyte"] >= h.Best["blackscholes"] {
		t.Errorf("leukocyte best pct (%d) should be below blackscholes' (%d)",
			h.Best["leukocyte"], h.Best["blackscholes"])
	}
	if !strings.Contains(h.Render(), "gmean") {
		t.Error("hybrid pct render malformed")
	}
}

func TestFig8ChunkSensitivity(t *testing.T) {
	f, err := RunFig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Apps) != 11 {
		t.Fatalf("Fig 8 covers %d apps, want 11", len(f.Apps))
	}
	// Expected shape 1: very large dynamic chunks hurt (end-of-loop
	// imbalance) relative to the best dynamic setting, for most apps.
	hurt := 0
	for _, app := range f.Apps {
		best := 0.0
		for _, c := range f.DynChunks {
			if v := f.Norm[labelDyn(c)][app]; v > best {
				best = v
			}
		}
		if f.Norm[labelDyn(30)][app] < best*0.97 {
			hurt++
		}
	}
	if hurt < 6 {
		t.Errorf("large dynamic chunks hurt only %d/11 apps; expected the majority", hurt)
	}
	// Expected shape 2: AID-dynamic's tail switch removes the chunk-choice
	// risk — its worst setting stays close to dynamic's best, and far above
	// dynamic's worst setting for the chunk-sensitive apps (§5B: the
	// optimization "effectively remove[s] this source of load imbalance").
	sensitiveApps := 0
	for _, app := range f.Apps {
		worstDyn := worstOver(f, app, f.DynChunks, labelDyn)
		worstAID := worstOver(f, app, f.AIDMajors, labelAID)
		if worstAID < worstDyn*0.93 {
			t.Errorf("%s: AID-dynamic worst-case (%.3f) falls below dynamic's worst (%.3f)",
				app, worstAID, worstDyn)
		}
		if worstAID > worstDyn*1.1 {
			sensitiveApps++
		}
	}
	if sensitiveApps < 4 {
		t.Errorf("AID-dynamic clearly beats dynamic's worst chunk for only %d/11 apps", sensitiveApps)
	}
	if !strings.Contains(f.Render(), "AID-dynamic/1,35") {
		t.Error("Fig 8 render missing sweep rows")
	}
}

// TestAblationMechanismsBind: each mechanism column of the ablation table —
// the Fig. 5 tail switch and the per-phase SM bound — has, on both
// platforms, some application that runs longer without the mechanism. If a
// change leaves one of them dead weight, this test names it.
func TestAblationMechanismsBind(t *testing.T) {
	for _, pl := range []*amp.Platform{amp.PlatformA(), amp.PlatformB()} {
		r, err := RunAblation(pl)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for c, col := range ablationColumns {
			if col.name != "tail-switch" && col.name != "sm-clamp" {
				continue
			}
			checked++
			most, app := 0.0, ""
			for a := range r.Apps {
				if r.Ratio[a][c] > most {
					most, app = r.Ratio[a][c], r.Apps[a]
				}
			}
			if most <= 1 {
				t.Errorf("%s on %s is dead weight: no application runs longer without it (largest ratio %.4f, %s)",
					col.name, r.Platform, most, app)
			}
		}
		if checked != 2 {
			t.Fatalf("the ablation table has %d of the two mechanism columns", checked)
		}
	}
}

func labelDyn(c int64) string { return fmt.Sprintf("dynamic(BS)/%d", c) }
func labelAID(m int64) string { return fmt.Sprintf("AID-dynamic/1,%d", m) }

func worstOver(f Fig8Result, app string, chunks []int64, label func(int64) string) float64 {
	mn := 1e18
	for _, c := range chunks {
		if v := f.Norm[label(c)][app]; v < mn {
			mn = v
		}
	}
	return mn
}

func TestFig2Render(t *testing.T) {
	s := Fig2Series{App: "BT", Platform: "A", SF: []float64{1.5, 3.25}}
	out := s.Render()
	if !strings.Contains(out, "BT on Platform A") || !strings.Contains(out, "loop  1") {
		t.Errorf("Fig 2 render malformed: %q", out)
	}
}
