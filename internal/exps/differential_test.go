package exps

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/amp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// chainByHand adds a program up the long way: one sim.RunLoop per execution
// of every loop phase, each under a scheduler the factory built for it and
// started where the previous one ended.
func chainByHand(cfg sim.Config, prog sim.Program) (sim.ProgramResult, error) {
	pl := cfg.Platform
	var res sim.ProgramResult
	cursor := int64(0)
	for _, ph := range prog.Phases {
		if ph.Loop == nil {
			cursor += int64(ph.SerialUnits / pl.Speed(pl.CoreOf(0, cfg.NThreads, cfg.Binding), ph.SerialProfile, 1))
			continue
		}
		for r := 0; r < max(ph.Reps, 1); r++ {
			lr, err := sim.RunLoop(cfg, *ph.Loop, cursor)
			if err != nil {
				return res, err
			}
			res.PoolAccesses += lr.PoolAccesses
			cursor = lr.End
		}
	}
	res.TotalNs = cursor
	return res, nil
}

// TestRunProgramDifferential holds sim.RunProgram's accounting of repetitions
// ("Repetitions" in the sim package comment) against the two ways of
// simulating every one of them, over the programs the figures are made of:
// all 21 applications under the seven schemes of Fig. 6 on Platform A. The
// three must agree in every field of the ProgramResult:
//
//   - RunProgram as the figures call it, which simulates the first execution
//     of a phase and accounts the others from it;
//   - RunProgram made to simulate every execution, each under the phase's
//     scheduler re-armed by Reset, by a migration no clock of the run reaches;
//   - sim.RunLoop chained by hand, every execution under the scheduler the
//     factory hands it: a spare (core.Recycle) that another cell's loop left,
//     as likely as not, re-armed, or a new one.
//
// A scheduler whose Reset carries something over from the previous execution
// separates the three, whose schedulers ran different executions before; a
// model in which an execution depends on its index or on when it starts
// separates the first from both.
func TestRunProgramDifferential(t *testing.T) {
	pl := amp.PlatformA()
	apps, schemes := workloads.All(), Fig6Schemes()
	if len(apps) != 21 {
		t.Fatalf("%d applications, want the paper's 21", len(apps))
	}
	diffs, err := sweep(len(apps)*len(schemes), func(i int) (string, error) {
		w, s := apps[i/len(schemes)], schemes[i%len(schemes)]
		cfg := sim.Config{Platform: pl, NThreads: pl.NumCores(), Binding: s.Binding, Factory: s.Sched.Factory()}
		accounted, err := sim.RunProgram(cfg, w.Program)
		if err != nil {
			return "", err
		}
		byHand, err := chainByHand(cfg, w.Program)
		if err != nil {
			return "", err
		}
		cfg.Migrations = []sim.Migration{{AtNs: math.MaxInt64, Tid: 0, ToCPU: 0}}
		rearmed, err := sim.RunProgram(cfg, w.Program)
		if err != nil {
			return "", err
		}
		if accounted != byHand || accounted != rearmed {
			return fmt.Sprintf("%s under %s:\n accounted from the first %+v\n re-armed every time    %+v\n RunLoop by hand        %+v",
				w.Name, s.Label, accounted, rearmed, byHand), nil
		}
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		if d != "" {
			t.Error(d)
		}
	}
}
