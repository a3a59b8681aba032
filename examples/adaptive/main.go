// Adaptive scheduling (the §6 future-work extension): the AID-auto schedule
// decides per loop, from the sampling phase it already runs, whether the
// loop's iterations are uniform (take the AID-hybrid path) or irregular
// (take the AID-dynamic path).
//
// The example simulates a program whose loops alternate between a uniform
// stencil-style kernel and an irregular detection-style kernel, and shows
// that AID-auto matches the better fixed variant on each without being
// told which is which — the situation the paper leaves as future work:
// "applying AID-static or AID-hybrid to loops where iterations have the
// same amount of work, and AID-dynamic to the remaining loops".
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	pl := amp.PlatformA()
	uniform := sim.LoopSpec{
		Name:    "uniform-kernel",
		NI:      4096,
		Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.25, FootprintMB: 0.2},
		Cost:    sim.UniformCost{PerIter: 90000},
	}
	irregular := sim.LoopSpec{
		Name:    "irregular-kernel",
		NI:      4096,
		Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.25, FootprintMB: 0.2},
		Cost:    sim.BlockNoisyCost{Base: 45000, Amp: 4, BlockLen: 16, Seed: 7},
	}
	program := sim.Program{
		Name: "alternating",
		Phases: []sim.Phase{
			{Loop: &uniform, Reps: 4},
			{Loop: &irregular, Reps: 4},
			{Loop: &uniform, Reps: 4},
			{Loop: &irregular, Reps: 4},
		},
	}

	for _, sched := range []core.Schedule{
		{Kind: core.KindAIDHybrid, Pct: 0.8},
		{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5},
		{Kind: core.KindAIDAuto, Chunk: 16, Major: 64},
	} {
		cfg := sim.Config{
			Platform: pl,
			NThreads: 8,
			Binding:  amp.BindBS,
			Factory:  sched.Factory(),
		}
		res, err := sim.RunProgram(cfg, program)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s %10.3f ms (virtual), %6d pool accesses\n",
			sched, float64(res.TotalNs)/1e6, res.PoolAccesses)
	}

	// Show the decision AID-auto takes on each loop. RunProgram asks a
	// FactoryNamed once per loop phase, whatever the phase's Reps (a plain
	// Factory once per program), so there is one scheduler, and one decision,
	// per phase.
	fmt.Fprintln(w, "\nAID-auto per-loop decisions:")
	type decided struct {
		loop  string
		sched *core.AIDAuto
	}
	var autos []decided
	cfg := sim.Config{
		Platform: pl,
		NThreads: 8,
		Binding:  amp.BindBS,
		FactoryNamed: func(name string, info core.LoopInfo) (core.Scheduler, error) {
			s, err := core.NewAIDAuto(info, 16, 0.8, 64, 0)
			if err != nil {
				return nil, err
			}
			autos = append(autos, decided{name, s})
			return s, nil
		},
	}
	if _, err := sim.RunProgram(cfg, program); err != nil {
		return err
	}
	for i, a := range autos {
		irregularPick, cv, ok := a.sched.Decision()
		verdict := "uniform   -> hybrid path"
		if irregularPick {
			verdict = "irregular -> dynamic path"
		}
		fmt.Fprintf(w, "loop %2d %-18s CV %.3f  %s (decided=%v)\n", i, a.loop, cv, verdict, ok)
	}
	return nil
}
