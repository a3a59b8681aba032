package sim

import (
	"fmt"
	"math"

	"repro/internal/amp"
	"repro/internal/core"
)

// Phase is one element of a program: either a parallel loop (possibly
// repeated, as time-stepped solvers repeat their loop nests) or a serial
// section executed by the master thread (§2 lists serial phases between
// parallel loops as the other main scalability limiter).
type Phase struct {
	// Loop, when non-nil, makes this a parallel-loop phase.
	Loop *LoopSpec
	// Reps is the loop repetition count; 0 means 1. Every execution of the
	// phase is the first one translated in time, and RunProgram accounts the
	// others from it unless something attached to the Config sees them one by
	// one ("Repetitions" in the package comment).
	Reps int
	// SerialUnits, for serial phases, is the work executed by the master.
	SerialUnits float64
	// SerialProfile is the serial code's instruction mix.
	SerialProfile amp.Profile
}

// Validate checks the phase.
func (p Phase) Validate() error {
	switch {
	case p.Loop != nil && p.SerialUnits > 0:
		return fmt.Errorf("sim: phase has both a loop and serial work")
	case p.Loop != nil:
		if p.Reps < 0 {
			return fmt.Errorf("sim: loop %q has negative rep count %d", p.Loop.Name, p.Reps)
		}
		return p.Loop.Validate()
	case p.SerialUnits > 0:
		return p.SerialProfile.Validate()
	default:
		return fmt.Errorf("sim: phase is neither a loop nor serial work")
	}
}

// Program is a modeled OpenMP application: an ordered list of phases.
type Program struct {
	Name   string
	Phases []Phase
}

// Validate checks the program.
func (pr Program) Validate() error {
	if len(pr.Phases) == 0 {
		return fmt.Errorf("sim: program %q has no phases", pr.Name)
	}
	for i, ph := range pr.Phases {
		if err := ph.Validate(); err != nil {
			return fmt.Errorf("sim: program %q phase %d: %w", pr.Name, i, err)
		}
	}
	return nil
}

// Loops returns the program's loop specs in order, expanding repetitions
// into a single entry each (repetition does not change a loop's identity).
func (pr Program) Loops() []LoopSpec {
	var out []LoopSpec
	for _, ph := range pr.Phases {
		if ph.Loop != nil {
			out = append(out, *ph.Loop)
		}
	}
	return out
}

// ProgramResult aggregates one simulated program execution.
type ProgramResult struct {
	// TotalNs is the virtual completion time.
	TotalNs int64
	// PoolAccesses counts shared-pool operations over the whole run.
	PoolAccesses int64
}

// RunProgram simulates the program under cfg and returns its result.
func RunProgram(cfg Config, prog Program) (ProgramResult, error) {
	if err := prog.Validate(); err != nil {
		return ProgramResult{}, err
	}
	ws, err := newWorkspace(cfg)
	if err != nil {
		return ProgramResult{}, err
	}
	res, err := ws.runProgram(prog)
	ws.release()
	return res, err
}

// runProgram is RunProgram's walk of the phases, on the workspace of its
// call.
func (ws *workspace) runProgram(prog Program) (ProgramResult, error) {
	cfg := ws.cfg
	pl := cfg.Platform
	masterCore := pl.CoreOf(0, cfg.NThreads, cfg.Binding)
	var res ProgramResult
	cursor := int64(0)
	lr := ws.lr[:]
	// Nothing attached can tell one execution of a phase from the next: a
	// record holds every execution, a migration's AtNs is absolute.
	unobserved := cfg.Recorder == nil && len(cfg.Migrations) == 0
	for _, ph := range prog.Phases {
		if ph.Loop == nil {
			// Serial phase: the master thread alone, no cluster contention.
			// It is no part of a loop execution, so of no record.
			d := ph.SerialUnits / pl.Speed(masterCore, ph.SerialProfile, 1)
			if !(d < 1<<63) || int64(d) >= math.MaxInt64-cursor {
				return ProgramResult{}, fmt.Errorf("sim: program %q: a serial phase of %.4g ns from %d ns runs past the end of the virtual clock", prog.Name, d, cursor)
			}
			cursor += int64(d)
			continue
		}
		reps := ph.Reps
		if reps == 0 {
			reps = 1
		}
		// Factory cannot tell one loop from another, so one scheduler serves
		// the program: the first execution builds it, every further one that is
		// simulated, of this phase or a later one, re-arms it for its loop
		// (workspace.scheduler). FactoryNamed may build each loop's differently,
		// so under it each loop phase builds its own.
		if cfg.FactoryNamed != nil {
			ws.forgetSchedulers()
		}
		spec := []LoopSpec{*ph.Loop}
		for r, n := 0, 1; r < reps; r += n {
			if err := ws.run(lr, spec, nil, cursor); err != nil {
				return ProgramResult{}, err
			}
			// What a re-armed scheduler does unobserved is this execution
			// translated in time ("Repetitions" in the package comment), so this
			// one stands for all that are left of the phase.
			if _, rearms := ws.scheds[0].(core.Resettable); rearms && unobserved {
				n = reps - r
			}
			dur := lr[0].End - lr[0].Start
			if dur > (math.MaxInt64-cursor)/int64(n) {
				return ProgramResult{}, fmt.Errorf("sim: program %q: %d executions of loop %q of %d ns from %d ns run past the end of the virtual clock", prog.Name, n, ph.Loop.Name, dur, cursor)
			}
			if lr[0].PoolAccesses > (math.MaxInt64-res.PoolAccesses)/int64(n) {
				return ProgramResult{}, fmt.Errorf("sim: program %q: %d executions of loop %q count more pool accesses than an int64 holds", prog.Name, n, ph.Loop.Name)
			}
			res.PoolAccesses += int64(n) * lr[0].PoolAccesses
			cursor += int64(n) * dur
		}
	}
	res.TotalNs = cursor
	return res, nil
}
