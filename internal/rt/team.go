package rt

import (
	"fmt"

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
// Team is the single-loop facade over Registry: each ParallelFor call
// spins up a dedicated worker fleet, submits the one loop, waits on its
// barrier and tears the fleet down — the classic fork/join shape of
// `#pragma omp parallel for`. Long-lived services that run many loops
// (from many requests) on one persistent fleet should use Registry
// directly.
type Team struct {
	platform *amp.Platform
	nthreads int
	binding  amp.Binding
	schedule core.Schedule
	profile  amp.Profile
	slowdown []float64 // per thread, >= 1
	capture  bool
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
	// Capture records every ParallelFor execution: per-worker wall-clock
	// timelines, chunk grants and scheduler phase transitions, surfaced
	// through LoopStats (the real-engine analog of sim.Config.Trace).
	Capture bool
}

// NewTeam builds a team of workers.
func NewTeam(cfg TeamConfig) (*Team, error) {
	pl, nthreads, err := fleetParams(cfg.Platform, cfg.NThreads, cfg.Profile)
	if err != nil {
		return nil, err
	}
	return &Team{
		platform: pl,
		nthreads: nthreads,
		binding:  cfg.Binding,
		schedule: cfg.Schedule,
		profile:  cfg.Profile,
		slowdown: fleetSlowdowns(pl, nthreads, cfg.Binding, cfg.Profile),
		capture:  cfg.Capture,
	}, nil
}

// NThreads returns the worker count.
func (t *Team) NThreads() int { return t.nthreads }

// Slowdown returns worker tid's emulated slowdown factor (1 = big core).
func (t *Team) Slowdown(tid int) float64 { return t.slowdown[tid] }

// ParallelFor executes body(i) for every i in [0, n) across the team's
// workers under the team's schedule, blocking until the implicit barrier
// releases (all iterations done). It corresponds to `#pragma omp parallel
// for schedule(runtime)` under the paper's modified compiler.
func (t *Team) ParallelFor(n int64, body func(i int64)) error {
	return t.ParallelForChunked(n, func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ParallelForChunked is ParallelFor for bodies that prefer whole chunks
// (e.g. to vectorize or batch). body must process exactly [lo, hi).
func (t *Team) ParallelForChunked(n int64, body func(lo, hi int64)) error {
	_, err := t.ParallelForChunkedStats(n, func(_ int, lo, hi int64) { body(lo, hi) })
	return err
}

// LoopStats reports one real-goroutine loop execution: the outcome both
// engines report (obs.Outcome), so the cross-engine conformance harness can
// compare them on identical workloads, plus the loop's capture. Its Start
// is the submission on the fleet's monotonic clock, and its Metrics exist
// only on registries built with RegistryConfig.Metrics.
type LoopStats struct {
	obs.Outcome

	// The fields below are populated only for loops submitted with
	// LoopRequest.Capture (or run on a Team configured with Capture).

	// Trace is the merged per-worker wall-clock timeline: Sched for time
	// inside the scheduler, Running for chunk execution (including the
	// small-core throttle), and on a Team, whose loop owns its fleet, Sync
	// for the wait between a worker's retirement and the barrier release
	// (obs.Ledger). A registry loop's timeline ends at each retirement.
	Trace *trace.Trace
	// Events is the loop's chunk-grant stream in wall-clock order; Seq
	// holds each event's per-worker capture sequence (the tie-break token
	// Registry.BuildRecord uses when interleaving several loops).
	Events []trace.ChunkEvent
	// Phases is the scheduler's transition stream (AID methods only).
	Phases []trace.PhaseEvent
}

// ParallelForChunkedStats executes body(tid, lo, hi) for every scheduled
// chunk and reports per-thread iteration counts, pool accesses and the
// scheduler's SF estimate. It is the instrumented core of the ParallelFor
// family; the tid is the worker's team-local thread ID.
func (t *Team) ParallelForChunkedStats(n int64, body func(tid int, lo, hi int64)) (LoopStats, error) {
	stats, _, err := t.run("parallel-for", n, body, false)
	return stats, err
}

// RecordParallelFor executes body like ParallelForChunkedStats with capture
// forced on and additionally assembles the serializable run record — the
// real-engine entry point of the record & replay subsystem. The record can
// be written with trace.EncodeJSONL and re-executed (exact or what-if) by
// internal/replay.
func (t *Team) RecordParallelFor(name string, n int64, body func(tid int, lo, hi int64)) (*trace.Record, LoopStats, error) {
	stats, rec, err := t.run(name, n, body, true)
	return rec, stats, err
}

// run is the shared single-loop execution path: a dedicated fleet, one
// submission, barrier wait, optional record assembly, teardown.
func (t *Team) run(name string, n int64, body func(tid int, lo, hi int64), record bool) (LoopStats, *trace.Record, error) {
	if n < 0 {
		return LoopStats{}, nil, fmt.Errorf("rt: negative trip count %d", n)
	}
	reg, err := NewRegistry(RegistryConfig{
		Platform: t.platform,
		NThreads: t.nthreads,
		Binding:  t.binding,
		Profile:  t.profile,
	})
	if err != nil {
		return LoopStats{}, nil, err
	}
	defer reg.Close()
	reg.team = true // the fleet is the loop's own, and so are its barrier waits
	l, err := reg.Submit(LoopRequest{Name: name, N: n, Schedule: t.schedule, Body: body,
		Capture: t.capture || record})
	if err != nil {
		return LoopStats{}, nil, err
	}
	stats := l.Wait()
	if !record {
		return stats, nil, nil
	}
	rec, err := reg.BuildRecord(l)
	return stats, rec, err
}
