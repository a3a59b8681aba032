// Package repro's root benchmark harness: the paper's trace figures (Fig. 1,
// 2, 4) and the goroutine executor, each reporting its headline quantity as a
// custom metric (run with `go test -bench=. -benchmem`); the ablation
// benchmarks sit next to it.
//
// The figure tables themselves (Fig. 6-9, Table 2, the guided, hybrid-pct and
// zoo sweeps) are virtual-time results and are gated to the digit by
// cmd/aidbench's TestExpGolden; host-time cost of the runtime layers is
// measured by ./bench (BENCHMARK.json, `make bench-ab`).
package repro

import (
	"sync/atomic"
	"testing"

	"repro/internal/exps"
	"repro/internal/rt"
	"repro/internal/stats"
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
