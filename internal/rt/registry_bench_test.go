package rt

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/fair"
)

// BenchmarkMultiLoop measures aggregate multi-tenant throughput on a fixed
// 8-worker fleet: the same total iteration count split across 1, 4 or 16
// concurrent loop submissions under weighted round-robin. The acceptance
// signal is that aggregate throughput (the iters/s metric) holds steady or
// improves as tenancy rises — the registry control plane must not collapse
// when many loops share the fleet. It is the rt-level companion of
// internal/pool's BenchmarkHotPath.
func BenchmarkMultiLoop(b *testing.B) {
	const totalIters = 1 << 17
	for _, nloops := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("loops=%d", nloops), func(b *testing.B) {
			reg, err := NewRegistry(RegistryConfig{NThreads: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer reg.Close()
			perLoop := int64(totalIters / nloops)
			sched := Schedule{Kind: KindDynamic, Chunk: 64}
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loops := make([]*Loop, nloops)
				for j := range loops {
					loops[j], err = reg.Submit(LoopRequest{
						N:        perLoop,
						Schedule: sched,
						Body:     func(_ int, lo, hi int64) { sink.Add(hi - lo) },
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, l := range loops {
					l.Wait()
				}
			}
			b.StopTimer()
			if want := int64(b.N) * int64(nloops) * perLoop; sink.Load() != want {
				b.Fatalf("covered %d of %d iterations", sink.Load(), want)
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)*float64(totalIters)/secs, "iters/s")
			}
		})
	}

	// The SF-loop rows: aid-dynamic tenants (the schedulers that publish live
	// SF estimates) under plain WRR versus the SF-aware policy, so the cost
	// of steering — the extra SF reads and the subset partition per pick —
	// shows up next to the baseline in the same BENCH_multiloop.json.
	for _, pol := range []struct {
		name string
		mk   func() fair.Policy
	}{
		{"wrr", func() fair.Policy { return fair.NewWeightedRoundRobin(0) }},
		{"sf-aware", func() fair.Policy { return fair.NewSFAware(0, 0) }},
	} {
		b.Run(fmt.Sprintf("loops=4/sched=aid-dynamic/policy=%s", pol.name), func(b *testing.B) {
			reg, err := NewRegistry(RegistryConfig{NThreads: 8, Policy: pol.mk()})
			if err != nil {
				b.Fatal(err)
			}
			defer reg.Close()
			const nloops = 4
			perLoop := int64(totalIters / nloops)
			sched := Schedule{Kind: KindAIDDynamic, Chunk: 1, Major: 5}
			var sink atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loops := make([]*Loop, nloops)
				for j := range loops {
					loops[j], err = reg.Submit(LoopRequest{
						N:        perLoop,
						Schedule: sched,
						Body:     func(_ int, lo, hi int64) { sink.Add(hi - lo) },
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, l := range loops {
					l.Wait()
				}
			}
			b.StopTimer()
			if want := int64(b.N) * nloops * perLoop; sink.Load() != want {
				b.Fatalf("covered %d of %d iterations", sink.Load(), want)
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(b.N)*float64(totalIters)/secs, "iters/s")
			}
		})
	}
}
