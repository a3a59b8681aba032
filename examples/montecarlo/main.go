// Monte-Carlo π estimation — the EP-style workload of the paper's
// motivation (§2, Fig. 1) — executed two ways:
//
//   - For real, with goroutine workers under every schedule. Workers
//     emulating small cores are throttled, and the estimate must be
//     identical under every schedule (iteration partitioning cannot change
//     the sampled stream).
//   - In simulation on both modeled platforms, comparing all seven schemes
//     of Fig. 6 on an EP-like uniform loop.
//
// Run with: go run ./examples/montecarlo
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/exps"
	"repro/internal/kernels"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/workloads"
)

const samples = 400000

func main() {
	fmt.Println("== real execution (4 goroutine workers, emulated 2B+2S) ==")
	for _, sched := range []core.Schedule{
		{Kind: core.KindStatic},
		{Kind: core.KindDynamic, Chunk: 256},
		{Kind: core.KindGuided},
		// On a machine with few real CPUs, goroutine workers timeshare, so
		// the AID sampling phase uses a coarse chunk: with chunk=1 a
		// not-yet-scheduled worker would keep the sampling phase open while
		// the running workers drain the pool one iteration at a time.
		{Kind: core.KindAIDStatic, Chunk: 512},
		{Kind: core.KindAIDHybrid, Chunk: 512, Pct: 0.8},
		{Kind: core.KindAIDDynamic, Chunk: 64, Major: 512},
	} {
		team, err := rt.NewTeam(rt.TeamConfig{
			NThreads: 4,
			Schedule: sched,
			Profile:  amp.Profile{ILP: 0.5},
		})
		if err != nil {
			log.Fatal(err)
		}
		var hits atomic.Int64
		start := time.Now()
		err = team.ParallelForChunked(samples, func(lo, hi int64) {
			hits.Add(kernels.MonteCarloPiRange(lo, hi, 2024))
		})
		if err != nil {
			log.Fatal(err)
		}
		pi := 4 * float64(hits.Load()) / samples
		fmt.Printf("%-20s pi = %.6f   wall %8.2f ms\n", sched, pi, float64(time.Since(start).Microseconds())/1000)
	}

	fmt.Println()
	fmt.Println("== simulated EP loop on both modeled platforms ==")
	ep, _ := workloads.ByName("EP")
	loop := ep.Program.Loops()[0]
	for _, pl := range []*amp.Platform{amp.PlatformA(), amp.PlatformB()} {
		fmt.Printf("-- Platform %s --\n", pl.Name)
		for _, scheme := range exps.Fig6Schemes() {
			cfg := sim.Config{
				Platform: pl,
				NThreads: pl.NumCores(),
				Binding:  scheme.Binding,
				Factory:  scheme.Sched.Factory(),
			}
			res, err := sim.RunLoop(cfg, loop, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-14s %9.3f ms (virtual)\n", scheme.Label, float64(res.End-res.Start)/1e6)
		}
	}
}
