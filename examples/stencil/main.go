// Heat-diffusion stencil — the hotspot-style workload (Rodinia) — showing
// per-loop SF measurement and the value of online estimation.
//
// The example runs a real 2-D stencil with goroutine workers (row-parallel,
// AID-static), verifies heat conservation, then uses the simulator to
// reproduce the §5C experiment in miniature: it measures the stencil loop's
// offline SF on Platform A, compares it with the contended 8-thread SF, and
// shows the completion times of AID-static with online estimation vs the
// offline-fed variant.
//
// Run with: go run ./examples/stencil
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/rt"
	"repro/internal/sim"
)

func main() {
	// --- real row-parallel stencil -----------------------------------------
	const w, h, steps = 256, 256, 20
	src, dst := kernels.NewGrid(w, h), kernels.NewGrid(w, h)
	src.Set(w/2, h/2, 1000)

	team, err := rt.NewTeam(rt.TeamConfig{NThreads: 4, Schedule: core.Schedule{Kind: core.KindAIDStatic}})
	if err != nil {
		log.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := team.ParallelFor(int64(h), func(y int64) {
			kernels.StencilRow(dst, src, int(y), 0.2)
		}); err != nil {
			log.Fatal(err)
		}
		src, dst = dst, src
	}
	var total float64
	for _, v := range src.Data {
		total += v
	}
	fmt.Printf("real stencil: %dx%d grid, %d steps, heat conserved: %.1f (want 1000.0, err %.2g)\n",
		w, h, steps, total, math.Abs(total-1000))

	// --- simulated SF study --------------------------------------------------
	pl := amp.PlatformA()
	loop := sim.LoopSpec{
		Name:    "stencil-row",
		NI:      1024,
		Profile: amp.Profile{ILP: 0.55, MemIntensity: 0.15, FootprintMB: 0.9},
		Cost:    sim.UniformCost{PerIter: 30000},
	}
	offline, err := sim.MeasureLoopSF(pl, loop)
	if err != nil {
		log.Fatal(err)
	}
	online := pl.SF(loop.Profile, 4, 4)
	fmt.Printf("stencil loop SF on Platform A: offline (1 thread) %.2f, contended (8 threads) %.2f\n",
		offline, online)

	runWith := func(name string, f sim.SchedulerFactory) {
		res, err := sim.RunLoop(sim.Config{
			Platform: pl, NThreads: 8, Binding: amp.BindBS, Factory: f,
		}, loop, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %9.3f ms (virtual)\n", name, float64(res.End-res.Start)/1e6)
	}
	runWith("static", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewStatic(i) })
	runWith("AID-static (online SF)", func(i core.LoopInfo) (core.Scheduler, error) {
		return core.NewAIDStatic(i, 1)
	})
	runWith("AID-static (offline SF)", func(i core.LoopInfo) (core.Scheduler, error) {
		return core.NewAIDStaticOffline(i, 1, []float64{offline, 1})
	})
}
