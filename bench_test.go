// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (run with `go test -bench=. -benchmem`),
// plus micro-benchmarks of the scheduling primitives.
//
// Figure/table benchmarks execute the same deterministic experiment code as
// cmd/aidbench and report the headline quantity of each figure as a custom
// metric, so a calibration regression shows up as a metric change even
// though virtual-time results do not depend on wall-clock performance.
package repro

import (
	"sync/atomic"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/exps"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// BenchmarkFig1EPTrace regenerates Fig. 1 (EP, static, 2B-2S vs 4S) and
// reports the completion-time ratio between the two configurations (the
// paper's observation: ~1.0).
func BenchmarkFig1EPTrace(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tr2b2s, tr4s, err := exps.RunFig1()
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(tr2b2s.CompletionNs) / float64(tr4s.CompletionNs)
	}
	b.ReportMetric(ratio, "2B2S/4S-ratio")
}

// BenchmarkFig2LoopSF regenerates Fig. 2 (per-loop offline SF of BT and CG
// on both platforms) and reports the maximum SF observed on Platform A.
func BenchmarkFig2LoopSF(b *testing.B) {
	var maxA float64
	for i := 0; i < b.N; i++ {
		series, err := exps.RunFig2()
		if err != nil {
			b.Fatal(err)
		}
		maxA = 0
		for _, s := range series {
			if s.Platform[0] != 'A' {
				continue
			}
			if m, err := stats.Max(s.SF); err == nil && m > maxA {
				maxA = m
			}
		}
	}
	b.ReportMetric(maxA, "max-SF-platformA")
}

// BenchmarkFig4AIDTrace regenerates Fig. 4 (EP under AID-static vs
// AID-hybrid) and reports AID-hybrid's relative gain in percent (paper:
// 10.5%).
func BenchmarkFig4AIDTrace(b *testing.B) {
	var gainPct float64
	for i := 0; i < b.N; i++ {
		aidStatic, aidHybrid, err := exps.RunFig4()
		if err != nil {
			b.Fatal(err)
		}
		gainPct = stats.RelGainPct(float64(aidStatic.CompletionNs), float64(aidHybrid.CompletionNs))
	}
	b.ReportMetric(gainPct, "hybrid-gain-%")
}

// BenchmarkFig6PlatformA regenerates Fig. 6 (21 apps x 7 schemes, Platform
// A) and reports the geometric-mean AID-hybrid gain over static(BS).
func BenchmarkFig6PlatformA(b *testing.B) { benchFig(b, amp.PlatformA()) }

// BenchmarkFig7PlatformB regenerates Fig. 7 (Platform B).
func BenchmarkFig7PlatformB(b *testing.B) { benchFig(b, amp.PlatformB()) }

func benchFig(b *testing.B, pl *amp.Platform) {
	var gmeanGain float64
	for i := 0; i < b.N; i++ {
		f, err := exps.RunFig6(pl)
		if err != nil {
			b.Fatal(err)
		}
		var base, hybrid []float64
		for _, a := range f.Apps {
			base = append(base, a.TimeNs["static(BS)"])
			hybrid = append(hybrid, a.TimeNs["AID-hybrid"])
		}
		gmeanGain = stats.GeoMeanGainPct(base, hybrid)
	}
	b.ReportMetric(gmeanGain, "hybrid-gmean-gain-%")
}

// BenchmarkTable2Gains regenerates Table 2 end to end and reports the
// AID-static mean gain on Platform A (paper: 14.98%).
func BenchmarkTable2Gains(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		fa, err := exps.RunFig6(amp.PlatformA())
		if err != nil {
			b.Fatal(err)
		}
		fb, err := exps.RunFig6(amp.PlatformB())
		if err != nil {
			b.Fatal(err)
		}
		tab := exps.RunTable2(fa, fb)
		gain = tab.Rows[0].MeanPct[fa.Platform]
	}
	b.ReportMetric(gain, "aid-static-mean-gain-%A")
}

// BenchmarkFig8ChunkSweep regenerates Fig. 8 (chunk sensitivity) and
// reports dynamic(BS)/30's normalized performance on BT — the paper's
// flagship example of large chunks degrading performance.
func BenchmarkFig8ChunkSweep(b *testing.B) {
	var btAt30 float64
	for i := 0; i < b.N; i++ {
		f, err := exps.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
		btAt30 = f.Norm["dynamic(BS)/30"]["BT"]
	}
	b.ReportMetric(btAt30, "BT-dynamic30-normperf")
}

// BenchmarkFig9OfflineSF regenerates Fig. 9a (Platform A) and reports how
// much AID-static's online estimation beats the offline-SF variant for
// blackscholes (§5C's headline case).
func BenchmarkFig9OfflineSF(b *testing.B) {
	var edge float64
	for i := 0; i < b.N; i++ {
		f, err := exps.RunFig9(amp.PlatformA())
		if err != nil {
			b.Fatal(err)
		}
		edge = f.Norm["AID-static"]["blackscholes"] / f.Norm["AID-static(offline-SF)"]["blackscholes"]
	}
	b.ReportMetric(edge, "blackscholes-online/offline")
}

// BenchmarkFig9cBlackscholesSF regenerates Fig. 9c (100 loop invocations)
// and reports the offline-to-estimated SF ratio.
func BenchmarkFig9cBlackscholesSF(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		f, err := exps.RunFig9c(100)
		if err != nil {
			b.Fatal(err)
		}
		ratio = f.OfflineSF[0] / stats.Mean(f.EstimatedSF)
	}
	b.ReportMetric(ratio, "offline/estimated-SF")
}

// BenchmarkGuidedComparison regenerates the §5 guided comparison (a known
// deviation; see EXPERIMENTS.md) and reports guided's average completion
// increase vs static(BS).
func BenchmarkGuidedComparison(b *testing.B) {
	var vsStatic float64
	for i := 0; i < b.N; i++ {
		g, err := exps.RunGuided(amp.PlatformA())
		if err != nil {
			b.Fatal(err)
		}
		vsStatic = g.VsStaticPct
	}
	b.ReportMetric(vsStatic, "guided-vs-static-%")
}

// BenchmarkHybridPctSweep regenerates the §5B AID-hybrid percentage
// sensitivity study and reports the gmean normalized performance at the
// paper's chosen 80%.
func BenchmarkHybridPctSweep(b *testing.B) {
	var at80 float64
	for i := 0; i < b.N; i++ {
		h, err := exps.RunHybridPct(amp.PlatformA(), workloads.All())
		if err != nil {
			b.Fatal(err)
		}
		at80 = h.GmeanNorm[80]
	}
	b.ReportMetric(at80, "gmean-normperf-at-80%")
}

// BenchmarkZoo sweeps the platform zoo (every registry preset under the
// zoo schemes, exps.RunZoo) and emits one sub-benchmark row per
// (platform, scheme) cell carrying the cell's makespan and modeled energy
// as custom metrics — the source of the committed BENCH_zoo.json capture.
func BenchmarkZoo(b *testing.B) {
	var z exps.ZooResult
	for i := 0; i < b.N; i++ {
		var err error
		z, err = exps.RunZoo()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range z.Rows {
		r := r
		b.Run(r.Platform+"/"+r.Scheme, func(sb *testing.B) {
			for i := 0; i < sb.N; i++ {
				// The sweep already ran above; this row only carries its
				// cell's metrics.
			}
			sb.ReportMetric(r.MakespanNs/1e6, "makespan-ms")
			sb.ReportMetric(r.EnergyJ, "energy-J")
		})
	}
}

// --- micro-benchmarks of the runtime primitives ---

func benchScheduler(b *testing.B, mk func(info core.LoopInfo) (core.Scheduler, error)) {
	info := core.LoopInfo{
		NI:       4096,
		NThreads: 4,
		NumTypes: 2,
		TypeOf:   func(tid int) int { return tid % 2 },
	}
	s, err := mk(info)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		asg, ok := s.Next(i%4, now)
		if !ok {
			// Loop drained: start a fresh execution of the same loop, so
			// the measurement amortizes over whole loop lifetimes.
			s, err = mk(info)
			if err != nil {
				b.Fatal(err)
			}
			continue
		}
		now += asg.N() * 10
	}
}

// BenchmarkSchedulerNextDynamic measures one dynamic(1) scheduling call.
func BenchmarkSchedulerNextDynamic(b *testing.B) {
	benchScheduler(b, func(i core.LoopInfo) (core.Scheduler, error) { return core.NewDynamic(i, 1) })
}

// BenchmarkSchedulerNextAIDStatic measures AID-static's call path,
// including the sampling state machine.
func BenchmarkSchedulerNextAIDStatic(b *testing.B) {
	benchScheduler(b, func(i core.LoopInfo) (core.Scheduler, error) { return core.NewAIDStatic(i, 1) })
}

// BenchmarkSchedulerNextAIDDynamic measures AID-dynamic's call path,
// including phase bookkeeping.
func BenchmarkSchedulerNextAIDDynamic(b *testing.B) {
	benchScheduler(b, func(i core.LoopInfo) (core.Scheduler, error) { return core.NewAIDDynamic(i, 1, 5) })
}

// BenchmarkSimLoop measures the discrete-event engine's event rate on a
// dynamic(1) loop (one pool access per iteration = one event per iteration).
func BenchmarkSimLoop(b *testing.B) {
	pl := amp.PlatformA()
	cfg := sim.Config{
		Platform: pl,
		NThreads: 8,
		Binding:  amp.BindBS,
		Factory: func(i core.LoopInfo) (core.Scheduler, error) {
			return core.NewDynamic(i, 1)
		},
	}
	spec := sim.LoopSpec{
		Name:    "bench",
		NI:      int64(b.N) + 8,
		Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.3},
		Cost:    sim.UniformCost{PerIter: 10000},
	}
	b.ResetTimer()
	if _, err := sim.RunLoop(cfg, spec, 0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRealParallelFor measures the goroutine executor end to end with
// an AID-static schedule over a trivial body.
func BenchmarkRealParallelFor(b *testing.B) {
	team, err := rt.NewTeam(rt.TeamConfig{
		NThreads: 4,
		Schedule: rt.Schedule{Kind: rt.KindAIDStatic, Chunk: 1024},
	})
	if err != nil {
		b.Fatal(err)
	}
	var sink atomic.Int64
	b.ResetTimer()
	if err := team.ParallelForChunked(int64(b.N)+1, func(lo, hi int64) {
		sink.Add(hi - lo)
	}); err != nil {
		b.Fatal(err)
	}
}
