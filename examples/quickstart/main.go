// Quickstart: the smallest end-to-end use of the library.
//
// It does two things:
//
//  1. Simulates one uniform parallel loop on the modeled Odroid-XU4
//     (Platform A) under the conventional static schedule and under
//     AID-static, showing the asymmetry-aware win in virtual time.
//  2. Runs a real ParallelFor with goroutine workers under AID-static,
//     demonstrating that the same scheduler implementation drives real
//     concurrent execution.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync/atomic"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// --- 1. Simulated comparison -----------------------------------------
	platform := amp.PlatformA()
	loop := sim.LoopSpec{
		Name:    "quickstart-loop",
		NI:      4096,
		Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.3, FootprintMB: 0.2},
		Cost:    sim.UniformCost{PerIter: 100000},
	}

	for _, sched := range []core.Schedule{
		{Kind: core.KindStatic},
		{Kind: core.KindAIDStatic},
	} {
		cfg := sim.Config{
			Platform: platform,
			NThreads: platform.NumCores(),
			Binding:  amp.BindBS,
			Factory:  sched.Factory(),
		}
		res, err := sim.RunLoop(cfg, loop, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-12s completed %d iterations in %8.3f ms (virtual)\n",
			sched, loop.NI, float64(res.End-res.Start)/1e6)
	}

	// --- 2. Real goroutine execution --------------------------------------
	team, err := rt.NewTeam(rt.TeamConfig{
		NThreads: 4,
		Schedule: core.Schedule{Kind: core.KindAIDStatic},
	})
	if err != nil {
		return err
	}
	defer team.Close()
	var sum atomic.Int64
	if err := team.ParallelFor(100000, func(i int64) {
		sum.Add(i)
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "real ParallelFor: sum of 0..99999 = %d (want 4999950000)\n", sum.Load())
	return nil
}
