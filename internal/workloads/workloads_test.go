package workloads

import (
	"strings"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestAllHas21UniqueValidWorkloads(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("All() returned %d workloads, want 21", len(all))
	}
	seen := map[string]bool{}
	suites := map[string]int{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		suites[w.Suite]++
		if err := w.Program.Validate(); err != nil {
			t.Errorf("workload %s invalid: %v", w.Name, err)
		}
	}
	if suites["NPB"] != 7 || suites["PARSEC"] != 3 || suites["Rodinia"] != 11 {
		t.Errorf("suite counts = %v, want NPB:7 PARSEC:3 Rodinia:11", suites)
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("streamcluster")
	if err != nil || w.Name != "streamcluster" || w.Suite != "PARSEC" {
		t.Errorf("ByName(streamcluster) = %+v, %v", w, err)
	}
	_, err = ByName("nonesuch")
	if err == nil || !strings.Contains(err.Error(), `"nonesuch"`) || !strings.Contains(err.Error(), "available: BT, CG, ") {
		t.Errorf("ByName(nonesuch): %v, want an error naming it and listing the workloads", err)
	}
}

func TestFig2LoopCounts(t *testing.T) {
	// Fig. 2 plots the first 30 loops of BT and CG; the models must have at
	// least that many distinct loops.
	for _, name := range []string{"BT", "CG"} {
		w, _ := ByName(name)
		if got := len(w.Program.Loops()); got < 30 {
			t.Errorf("%s has %d loops, Fig. 2 needs >= 30", name, got)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	// Workload constructors must be reproducible across calls.
	a, b := BT(), BT()
	la, lb := a.Program.Loops(), b.Program.Loops()
	if len(la) != len(lb) {
		t.Fatal("BT loop count varies between constructions")
	}
	for i := range la {
		if la[i].Profile != lb[i].Profile || la[i].NI != lb[i].NI {
			t.Errorf("BT loop %d differs between constructions", i)
		}
	}
}

// run executes a workload under the given schedule factory and binding.
func run(t *testing.T, w Workload, pl *amp.Platform, b amp.Binding, f sim.SchedulerFactory) int64 {
	t.Helper()
	res, err := sim.RunProgram(sim.Config{
		Platform: pl, NThreads: pl.NumCores(), Binding: b, Factory: f,
	}, w.Program)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return res.TotalNs
}

func statics(info core.LoopInfo) (core.Scheduler, error)  { return core.NewStatic(info) }
func dynamics(info core.LoopInfo) (core.Scheduler, error) { return core.NewDynamic(info, 1) }
func aidStatics(info core.LoopInfo) (core.Scheduler, error) {
	return core.NewAIDStatic(info, 1)
}
func aidDynamics(info core.LoopInfo) (core.Scheduler, error) {
	return core.NewAIDDynamic(info, 1, 5)
}

func TestISDynamicOverheadDisaster(t *testing.T) {
	// §5A: dynamic increases IS completion time ~1.9x vs static(SB) on A
	// (same binding, isolating the scheduler's own overhead).
	pl := amp.PlatformA()
	w, _ := ByName("IS")
	tStaticSB := run(t, w, pl, amp.BindSB, statics)
	tDynamicSB := run(t, w, pl, amp.BindSB, dynamics)
	ratio := float64(tDynamicSB) / float64(tStaticSB)
	if ratio < 1.4 {
		t.Errorf("IS dynamic(SB)/static(SB) = %.2f, want clearly > 1.4 (paper: 1.93)", ratio)
	}
}

func TestEPAIDStaticBeatsStatic(t *testing.T) {
	pl := amp.PlatformA()
	w, _ := ByName("EP")
	tStatic := run(t, w, pl, amp.BindBS, statics)
	tAID := run(t, w, pl, amp.BindBS, aidStatics)
	if tAID >= tStatic {
		t.Errorf("EP: AID-static (%d) should beat static(BS) (%d)", tAID, tStatic)
	}
}

func TestParticleFilterBSWorseThanSB(t *testing.T) {
	// §5A: particlefilter's rising iteration cost makes static(BS) *worse*
	// than static(SB) — the BS mapping hands the heavy tail to small cores.
	pl := amp.PlatformA()
	w, _ := ByName("particlefilter")
	tSB := run(t, w, pl, amp.BindSB, statics)
	tBS := run(t, w, pl, amp.BindBS, statics)
	if tBS <= tSB {
		t.Errorf("particlefilter: static(BS) (%d) should lose to static(SB) (%d)", tBS, tSB)
	}
}

func TestParticleFilterDynamicFixesIt(t *testing.T) {
	pl := amp.PlatformA()
	w, _ := ByName("particlefilter")
	tBS := run(t, w, pl, amp.BindBS, statics)
	tDyn := run(t, w, pl, amp.BindBS, dynamics)
	if tDyn >= tBS {
		t.Errorf("particlefilter: dynamic (%d) should beat static(BS) (%d)", tDyn, tBS)
	}
}

func TestBPTreeSerialDominated(t *testing.T) {
	// §5A: bptree's serial init dominates, so BS vs SB is a large win and
	// schedulers barely differ.
	pl := amp.PlatformA()
	w, _ := ByName("bptree")
	tSB := run(t, w, pl, amp.BindSB, statics)
	tBS := run(t, w, pl, amp.BindBS, statics)
	if float64(tSB)/float64(tBS) < 1.5 {
		t.Errorf("bptree: SB/BS = %.2f, want > 1.5 (serial acceleration)", float64(tSB)/float64(tBS))
	}
	tAID := run(t, w, pl, amp.BindBS, aidStatics)
	diff := float64(tAID-tBS) / float64(tBS)
	if diff > 0.1 || diff < -0.1 {
		t.Errorf("bptree: AID-static should be within 10%% of static(BS), got %+.1f%%", diff*100)
	}
}

func TestBlackscholesOfflineSFBias(t *testing.T) {
	// §5C/Fig. 9c: blackscholes' offline (single-thread) SF is much higher
	// than the SF under 8-thread LLC contention on Platform A.
	pl := amp.PlatformA()
	w, _ := ByName("blackscholes")
	var priceLoop sim.LoopSpec
	for _, l := range w.Program.Loops() {
		if l.Name == "bs-price" {
			priceLoop = l
		}
	}
	if priceLoop.Name == "" {
		t.Fatal("bs-price loop not found")
	}
	offline, err := sim.MeasureLoopSF(pl, priceLoop)
	if err != nil {
		t.Fatal(err)
	}
	online := pl.SF(priceLoop.Profile, 4, 4)
	if offline < 4 {
		t.Errorf("blackscholes offline SF = %.2f, want high (paper shows ~5-6)", offline)
	}
	if offline/online < 1.8 {
		t.Errorf("offline/online SF = %.2f/%.2f; contention compression too weak", offline, online)
	}
}

func TestStreamclusterLargeAIDGain(t *testing.T) {
	// §5A: streamcluster shows the paper's largest AID-static gain (~30%).
	pl := amp.PlatformA()
	w, _ := ByName("streamcluster")
	tStatic := run(t, w, pl, amp.BindBS, statics)
	tAID := run(t, w, pl, amp.BindBS, aidStatics)
	gain := float64(tStatic)/float64(tAID) - 1
	if gain < 0.15 {
		t.Errorf("streamcluster AID-static gain = %.1f%%, want substantial (paper: 30.7%%)", gain*100)
	}
}

func TestLeukocyteDynamicFriendly(t *testing.T) {
	// §5A: leukocyte's uneven iterations make dynamic clearly beneficial.
	pl := amp.PlatformA()
	w, _ := ByName("leukocyte")
	tStatic := run(t, w, pl, amp.BindBS, statics)
	tDyn := run(t, w, pl, amp.BindBS, dynamics)
	if tDyn >= tStatic {
		t.Errorf("leukocyte: dynamic (%d) should beat static(BS) (%d)", tDyn, tStatic)
	}
}

func TestAIDDynamicNeverCatastrophic(t *testing.T) {
	// AID-dynamic's purpose: keep dynamic's benefits without its overhead
	// blowups. Across all workloads on Platform B (where the paper sees
	// dynamic slow down up to 2.86x), AID-dynamic must stay within a sane
	// band of the static(BS) baseline.
	pl := amp.PlatformB()
	for _, w := range All() {
		tStatic := run(t, w, pl, amp.BindBS, statics)
		tAIDDyn := run(t, w, pl, amp.BindBS, aidDynamics)
		if ratio := float64(tAIDDyn) / float64(tStatic); ratio > 1.35 {
			t.Errorf("%s: AID-dynamic/static(BS) = %.2f on Platform B, too slow", w.Name, ratio)
		}
	}
}

func TestAllWorkloadsRunUnderAllAIDSchedulers(t *testing.T) {
	// Smoke: every workload completes under every AID scheduler on both
	// platforms (coverage is asserted inside the scheduler tests; here we
	// care that full programs do not wedge or error).
	for _, pl := range []*amp.Platform{amp.PlatformA(), amp.PlatformB()} {
		for _, w := range All() {
			for _, f := range []sim.SchedulerFactory{aidStatics, aidDynamics,
				func(info core.LoopInfo) (core.Scheduler, error) {
					return core.NewAIDHybrid(info, 1, 0.8)
				}} {
				if total := run(t, w, pl, amp.BindBS, f); total <= 0 {
					t.Errorf("%s on %s: non-positive completion time", w.Name, pl.Name)
				}
			}
		}
	}
}
