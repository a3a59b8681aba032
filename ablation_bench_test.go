package repro

import (
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Ablation benchmarks quantify the individual design decisions of the AID
// schedulers (each is argued where it is made, in the comments of
// internal/core) by running the same workload with one mechanism disabled
// and reporting the completion-time ratio (ablated / full; > 1 means the
// mechanism helps).

// runWorkload executes one workload on Platform A under a factory.
func runWorkload(b *testing.B, name string, f sim.SchedulerFactory) float64 {
	b.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("workload %s missing", name)
	}
	res, err := sim.RunProgram(sim.Config{
		Platform: amp.PlatformA(),
		NThreads: 8,
		Binding:  amp.BindBS,
		Factory:  f,
	}, w.Program)
	if err != nil {
		b.Fatal(err)
	}
	return float64(res.TotalNs)
}

// BenchmarkAblationTailSwitch measures the Fig. 5 end-of-loop dynamic(m)
// switch: AID-dynamic with a large Major chunk on BT (few-iteration loops),
// with and without the switch. Without it, a thread can strand the last
// R·M-sized allotments and recreate exactly the end-of-loop imbalance that
// Fig. 8 shows for plain dynamic with large chunks.
func BenchmarkAblationTailSwitch(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		full := runWorkload(b, "BT", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDDynamic(info, 1, 30)
		})
		ablated := runWorkload(b, "BT", func(info core.LoopInfo) (core.Scheduler, error) {
			s, err := core.NewAIDDynamic(info, 1, 30)
			if err != nil {
				return nil, err
			}
			s.SetAblation(true, false)
			return s, nil
		})
		ratio = ablated / full
	}
	b.ReportMetric(ratio, "no-tail/full-time-ratio")
}

// BenchmarkAblationSMClamp measures the per-phase smoothing-factor bound on
// a block-noisy workload (leukocyte, heavy-tailed per-cell cost). With the
// nominal-allotment rescaling in place the bound is rarely binding — a
// ratio of 1.0 documents that it is pure insurance (no cost when inactive);
// it exists to stop R oscillation if a phase measurement is corrupted
// (e.g. a descheduled worker under the real executor).
func BenchmarkAblationSMClamp(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		full := runWorkload(b, "leukocyte", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDDynamic(info, 1, 10)
		})
		ablated := runWorkload(b, "leukocyte", func(info core.LoopInfo) (core.Scheduler, error) {
			s, err := core.NewAIDDynamic(info, 1, 10)
			if err != nil {
				return nil, err
			}
			s.SetAblation(false, true)
			return s, nil
		})
		ratio = ablated / full
	}
	b.ReportMetric(ratio, "no-clamp/full-time-ratio")
}

// BenchmarkAblationSamplingChunk measures the cost of a larger sampling
// chunk for AID-static on EP: a bigger chunk lengthens the even-split
// sampling phase (more iterations distributed 1:1 before the asymmetric
// assignment), trading estimation variance against imbalance exposure.
func BenchmarkAblationSamplingChunk(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		chunk1 := runWorkload(b, "EP", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDStatic(info, 1)
		})
		chunk256 := runWorkload(b, "EP", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDStatic(info, 256)
		})
		ratio = chunk256 / chunk1
	}
	b.ReportMetric(ratio, "chunk256/chunk1-time-ratio")
}

// BenchmarkAblationHybridTail measures AID-hybrid's dynamic tail (pct 0.8
// vs pure AID-static) on EP — the Fig. 4 comparison as a pinned metric.
func BenchmarkAblationHybridTail(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		hybrid := runWorkload(b, "EP", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDHybrid(info, 1, 0.8)
		})
		pure := runWorkload(b, "EP", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDStatic(info, 1)
		})
		ratio = pure / hybrid
	}
	b.ReportMetric(ratio, "aid-static/hybrid-time-ratio")
}

// BenchmarkAblationWorkStealing compares the §4.3 work-stealing alternative
// against AID-static on EP: completion should be comparable (both balance
// the AMP), with work stealing paying more synchronized operations instead
// of a sampling phase.
func BenchmarkAblationWorkStealing(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		steal := runWorkload(b, "EP", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewWorkSteal(info, 64)
		})
		aid := runWorkload(b, "EP", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDStatic(info, 1)
		})
		ratio = steal / aid
	}
	b.ReportMetric(ratio, "steal/aid-static-time-ratio")
}

// BenchmarkAblationAIDAuto compares the §6 AID-auto extension against the
// best fixed variant per workload class: it must approach AID-hybrid on the
// uniform EP and AID-dynamic on the irregular leukocyte without being told
// which is which.
func BenchmarkAblationAIDAuto(b *testing.B) {
	var epRatio, leuRatio float64
	for i := 0; i < b.N; i++ {
		autoF := func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDAuto(info, 1, 0.8, 5, 0)
		}
		epAuto := runWorkload(b, "EP", autoF)
		epBest := runWorkload(b, "EP", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDHybrid(info, 1, 0.8)
		})
		leuAuto := runWorkload(b, "leukocyte", autoF)
		leuBest := runWorkload(b, "leukocyte", func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDDynamic(info, 1, 5)
		})
		epRatio = epAuto / epBest
		leuRatio = leuAuto / leuBest
	}
	b.ReportMetric(epRatio, "auto/best-EP")
	b.ReportMetric(leuRatio, "auto/best-leukocyte")
}
