package core_test

import (
	"reflect"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestResetEquivalence: a scheduler that has run one loop to completion and
// was then Reset for another is the scheduler its constructor would have
// built for that other loop. For every entry of the conformance set, a
// simulated run under the re-armed instance yields a LoopResult deeply equal
// to a run under a new one — per-thread iterations and finish times, pool
// accesses, scheduling time, the SF trajectory and the final estimate. The
// first loop differs from the second in trip count, thread count, binding
// and cost shape, and migrates a thread across clusters, so every table Reset
// re-sizes and the thread-to-type map Migrate rewrote are all in play.
func TestResetEquivalence(t *testing.T) {
	pl := amp.PlatformA()
	first := struct {
		cfg  sim.Config
		spec sim.LoopSpec
	}{
		cfg: sim.Config{Platform: pl, NThreads: pl.NumCores(), Binding: amp.BindBS,
			Migrations: []sim.Migration{{AtNs: 50_000, Tid: 0, ToCPU: 0}, {AtNs: 90_000, Tid: 7, ToCPU: 7}}},
		spec: sim.LoopSpec{Name: "first", NI: 20_011, Profile: amp.Profile{ILP: 0.7, MemIntensity: 0.1},
			Cost: sim.LinearCost{Base: 900, Slope: 0.4}},
	}
	for _, second := range []struct {
		name     string
		nthreads int
		binding  amp.Binding
		ni       int64
	}{
		{"same-shape", 8, amp.BindBS, 6_007},
		{"fewer-threads-SB", 5, amp.BindSB, 31_013},
		{"more-iterations", 8, amp.BindBS, 100_003},
		{"empty", 8, amp.BindBS, 0},
	} {
		cfg := sim.Config{Platform: pl, NThreads: second.nthreads, Binding: second.binding}
		spec := sim.LoopSpec{Name: "second", NI: second.ni, Profile: amp.Profile{ILP: 0.3, MemIntensity: 0.4, FootprintMB: 0.2},
			Cost: sim.UniformCost{PerIter: 1500}}
		var names []string
		cfg.Factory = func(info core.LoopInfo) (core.Scheduler, error) {
			for name := range core.ConformanceSchedulers(t, info) {
				names = append(names, name)
			}
			return core.NewStatic(info)
		}
		if _, err := sim.RunLoop(cfg, spec, 0); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			cfg.Factory = func(info core.LoopInfo) (core.Scheduler, error) {
				return core.ConformanceSchedulers(t, info)[name], nil
			}
			fresh, err := sim.RunLoop(cfg, spec, 1000)
			if err != nil {
				t.Fatalf("%s/%s: fresh: %v", second.name, name, err)
			}
			cfg.Factory = func(info core.LoopInfo) (core.Scheduler, error) {
				var used core.Scheduler
				warm := first.cfg
				warm.Factory = func(info core.LoopInfo) (core.Scheduler, error) {
					used = core.ConformanceSchedulers(t, info)[name]
					return used, nil
				}
				if _, err := sim.RunLoop(warm, first.spec, 0); err != nil {
					return nil, err
				}
				rs, ok := used.(core.Resettable)
				if !ok {
					t.Fatalf("%s does not implement core.Resettable", name)
				}
				return rs, rs.Reset(info)
			}
			reused, err := sim.RunLoop(cfg, spec, 1000)
			if err != nil {
				t.Fatalf("%s/%s: reset: %v", second.name, name, err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Errorf("%s/%s: a Reset scheduler and a new one disagree:\nreset %+v\nfresh %+v", second.name, name, reused, fresh)
			}
			var total int64
			for _, n := range reused.Iters {
				total += n
			}
			if total != second.ni {
				t.Errorf("%s/%s: covered %d of %d iterations", second.name, name, total, second.ni)
			}
		}
	}
}

// TestResetKeepsConfiguration: what the constructor and the setters fixed
// survives Reset, and a loop the configuration does not fit is refused.
func TestResetKeepsConfiguration(t *testing.T) {
	info := func(ni int64, types int) core.LoopInfo {
		return core.LoopInfo{NI: ni, NThreads: 6, NumTypes: types, TypeOf: func(tid int) int { return tid % types }}
	}
	off, err := core.NewAIDStaticOffline(info(1000, 2), 1, []float64{2.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := off.Reset(info(5000, 2)); err != nil {
		t.Fatal(err)
	}
	if sf, ok := off.SFEstimate(); !ok || !reflect.DeepEqual(sf, []float64{2.5, 1}) {
		t.Errorf("offline SF after Reset = %v, %v; want [2.5 1], published", sf, ok)
	}
	if err := off.Reset(info(5000, 3)); err == nil {
		t.Error("Reset fitted a two-entry offline SF table to three core types")
	}
	dyn, err := core.NewAIDDynamic(info(1000, 2), 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.Reset(info(77, 3)); err != nil {
		t.Fatal(err)
	}
	if m, M := dyn.Chunks(); m != 2 || M != 9 {
		t.Errorf("chunks after Reset = %d,%d; want 2,9", m, M)
	}
	if _, ok := dyn.R(); ok || dyn.InTail() {
		t.Error("Reset left the previous loop's R table or tail switch in place")
	}
	bad := info(10, 2)
	bad.NThreads = 0
	if err := dyn.Reset(bad); err == nil {
		t.Error("Reset accepted a loop with no threads")
	}
}
