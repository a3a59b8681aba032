package rt

import (
	"sync"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Team executes parallel loops with real goroutines, one worker per modeled
// CPU, emulating core asymmetry by throttling "small-core" workers: after
// executing a chunk for d nanoseconds, a worker on a core with slowdown
// factor f busy-waits for d·(f−1), so its effective throughput is 1/f of an
// unthrottled worker. The schedulers observe genuine wall-clock completion
// times and genuinely concurrent pool accesses, so this executor validates
// the runtime as real parallel code (the simulator validates the
// performance model).
//
// Team is the fork/join facade over one Registry, which NewTeam builds and
// Close joins: its workers persist across ParallelFor calls, as libgomp's
// thread pool persists across parallel regions, and each call submits one
// loop and waits on its barrier — the shape of `#pragma omp parallel for`.
// A Team runs one loop at a time, so that the loop owns its workers'
// barrier waits (obs.Ledger); concurrent calls queue. A body must therefore
// not call ParallelFor on its own team: the inner call would wait for the
// outer loop, which waits for the body. Long-lived services that run many
// loops at once on one fleet should use Registry directly.
type Team struct {
	reg      *Registry
	schedule core.Schedule
	mu       sync.Mutex // held for one loop, submission to barrier release
}

// TeamConfig configures NewTeam.
type TeamConfig struct {
	// Platform provides the topology and the per-core slowdown factors;
	// defaults to Platform A.
	Platform *amp.Platform
	// NThreads is the worker count; 0 selects the platform core count.
	// Values outside [0, NumCores] are rejected.
	NThreads int
	// Binding defaults to BS (the convention all AID variants assume).
	Binding amp.Binding
	// Schedule defaults to the zero value (the plain static schedule).
	Schedule core.Schedule
	// Profile is the instruction mix used to derive emulated slowdown
	// factors from the platform model; the zero value is a moderate mix.
	Profile amp.Profile
}

// NewTeam builds a team and starts its workers, which run until Close.
func NewTeam(cfg TeamConfig) (*Team, error) {
	reg, err := NewRegistry(RegistryConfig{
		Platform: cfg.Platform,
		NThreads: cfg.NThreads,
		Binding:  cfg.Binding,
		Profile:  cfg.Profile,
	})
	if err != nil {
		return nil, err
	}
	reg.team = true // read by Submit only, so set before the first one
	return &Team{reg: reg, schedule: cfg.Schedule}, nil
}

// NThreads returns the worker count.
func (t *Team) NThreads() int { return t.reg.NThreads() }

// Close lets a running loop finish and joins the team's workers. A loop
// started after Close fails. Close is safe to call more than once.
func (t *Team) Close() { t.reg.Close() }

// ParallelFor executes body(i) for every i in [0, n) across the team's
// workers under the team's schedule, blocking until the implicit barrier
// releases (all iterations done). It corresponds to `#pragma omp parallel
// for schedule(runtime)` under the paper's modified compiler.
func (t *Team) ParallelFor(n int64, body func(i int64)) error {
	if body == nil {
		return errNilBody
	}
	return t.ParallelForChunked(n, func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ParallelForChunked is ParallelFor for bodies that prefer whole chunks
// (e.g. to vectorize or batch). body must process exactly [lo, hi).
func (t *Team) ParallelForChunked(n int64, body func(lo, hi int64)) error {
	if body == nil {
		return errNilBody
	}
	_, _, err := t.run("parallel-for", n, func(_ int, lo, hi int64) { body(lo, hi) }, false)
	return err
}

// LoopStats is the outcome of a real-goroutine loop, obs.Outcome, under the
// name the repository benchmark uses.
type LoopStats = obs.Outcome

// RecordParallelFor executes body(tid, lo, hi) for every scheduled chunk,
// the tid being the worker's team-local thread ID, with capture on, and
// assembles the serializable run record — the real-engine entry point of the
// record & replay subsystem. The record can be written with
// trace.EncodeJSONL and re-executed (exact or what-if) by internal/replay.
func (t *Team) RecordParallelFor(name string, n int64, body func(tid int, lo, hi int64)) (*trace.Record, error) {
	_, rec, err := t.run(name, n, body, true)
	return rec, err
}

// run submits one loop to the team's registry, waits on its barrier and,
// with record, captures the loop and builds its run record.
func (t *Team) run(name string, n int64, body func(tid int, lo, hi int64), record bool) (obs.Outcome, *trace.Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := t.reg.Submit(LoopRequest{Name: name, N: n, Schedule: t.schedule, Body: body, Capture: record})
	if err != nil {
		return obs.Outcome{}, nil, err
	}
	stats := l.Wait()
	if !record {
		return stats, nil, nil
	}
	rec, err := t.reg.BuildRecord(l)
	return stats, rec, err
}
