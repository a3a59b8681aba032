package rt

import (
	"sync/atomic"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestCrossEngineZooEquivalence runs the same loop through both engines on
// the new zoo presets — the clustered big.LITTLE with private per-cluster
// LLCs and the P/E-core hybrid desktop — and asserts engine-independent
// invariants on each: exact single coverage, full-fleet participation in
// the iteration totals, and matching scheduler identity. This is the
// equivalence gate for platforms whose topology matrices actually exercise
// the nearest-victim steal order (Cluster has a cross-package tier, Hybrid
// has two same-package E-clusters).
func TestCrossEngineZooEquivalence(t *testing.T) {
	profile := amp.Profile{ILP: 0.6, MemIntensity: 0.15}
	const ni = 3001
	schedules := []core.Schedule{
		{Kind: core.KindDynamic, Chunk: 5},
		{Kind: core.KindAIDStatic, Chunk: 8},
		{Kind: core.KindAIDDynamic, Chunk: 4, Major: 20},
	}
	for _, name := range []string{"Cluster", "Hybrid"} {
		pl, ok := amp.Lookup(name)
		if !ok {
			t.Fatalf("zoo preset %q not registered", name)
		}
		nthreads := pl.NumCores()
		for _, s := range schedules {
			t.Run(name+"/"+s.String(), func(t *testing.T) {
				simRes, err := sim.RunLoop(sim.Config{
					Platform: pl,
					NThreads: nthreads,
					Binding:  amp.BindBS,
					Factory:  s.Factory(),
				}, sim.LoopSpec{Name: "zoo", NI: ni, Profile: profile,
					Cost: sim.UniformCost{PerIter: 2000}}, 0)
				if err != nil {
					t.Fatal(err)
				}
				var simTotal int64
				for _, n := range simRes.Iters {
					simTotal += n
				}
				if simTotal != ni {
					t.Fatalf("sim covered %d of %d on %s", simTotal, ni, name)
				}
				if simRes.EnergyJ <= 0 {
					t.Errorf("sim reported no energy on %s", name)
				}

				team := newTestTeam(t, TeamConfig{
					Platform: pl,
					NThreads: nthreads,
					Binding:  amp.BindBS,
					Schedule: s,
					Profile:  profile,
				})
				covered := make([]atomic.Int32, ni)
				rtRes, _, err := team.run("parallel-for", ni, func(_ int, lo, hi int64) {
					for i := lo; i < hi; i++ {
						covered[i].Add(1)
					}
				}, false)
				if err != nil {
					t.Fatal(err)
				}
				var rtTotal int64
				for _, n := range rtRes.Iters {
					rtTotal += n
				}
				if rtTotal != ni {
					t.Fatalf("rt covered %d of %d on %s", rtTotal, ni, name)
				}
				for i := range covered {
					if c := covered[i].Load(); c != 1 {
						t.Fatalf("iteration %d covered %d times on %s", i, c, name)
					}
				}
				if simRes.SchedulerName != rtRes.SchedulerName {
					t.Errorf("scheduler name differs across engines on %s: %q vs %q",
						name, simRes.SchedulerName, rtRes.SchedulerName)
				}
			})
		}
	}
}
