// Package rt is the user-facing runtime of the reproduction — the analog of
// libgomp as the paper modified it. It executes loops under the schedules
// internal/core names (core.Schedule, read from GOOMP_SCHEDULE text by
// core.ParseSchedule) and provides:
//
//   - Registry: the multi-loop executor — a persistent fleet of worker
//     goroutines (one per modeled CPU, with per-worker speed throttling
//     that emulates big/small cores) serving many concurrent loop
//     submissions, each with its own scheduler, sharded pool and barrier,
//     under a pluggable fairness policy (internal/fair). This is the
//     building block for serving many users' loops at once.
//   - Team: the fork/join facade over one Registry, used by the runnable
//     examples: NewTeam starts its workers, each ParallelFor runs one loop
//     on them (concurrent calls queue), and Close joins them. Big and small
//     cores are emulated by throttling on whatever CPUs the host has, so
//     wall-clock fidelity is limited;
//     the discrete-event engine (internal/sim, including the multi-loop
//     sim.RunLoops) carries the paper's evaluation, while Team and
//     Registry demonstrate the schedulers as real concurrent code.
//
// # Worker placement
//
// The paper's runtime runs one thread per core (libgomp's OMP_PROC_BIND),
// and so does a Registry where it can. NewRegistry reads the process's CPU
// mask once. When the mask holds at least as many CPUs as the fleet has
// workers, each worker locks its goroutine to its OS thread and binds the
// thread to a CPU of its own, the CPUs taken in mask order from a start
// that rotates between registries, so fleets alive together spread out. A
// smaller mask leaves the whole fleet to the kernel, since two workers
// fixed on one CPU could never be separated; a refused system call leaves
// that one worker unpinned. Only Linux binds (placement_linux.go).
//
// Why: left to the kernel, the two threads of a 1B+1S fleet on a two-CPU
// host often run on one CPU after an idle gap, taking turns. Under
// serve_open_hi's open loop (20 s, two runs per side), the dynamic,16 loops
// that one worker ran alone went from 383-408 to 278-291 of 1660, and the
// last-body-to-Wait p90 from 3.7-3.9 to 1.6 ms (dynamic,16), 2.4-2.5 to
// 1.5 ms (aid-hybrid,80,4) and 1.1-1.4 to 0.5-0.6 ms (aid-dynamic,1,5).
// The workload's p90_ms went from 15.1 to 9.1 ms and its iters_per_s from
// 2.37e6 to 2.86e6 (medians of 10 alternating 20 s pairs, every pair
// better); traced, rt.first_to_done_ms read 2.3-2.7 ms before and 1.9 ms
// after, rt.p99_ms 22-39 ms before and 15-16 ms after.
//
// A bound thread is never unlocked: it ends with its worker goroutine at
// Close, so a one-CPU thread never goes back to the runtime to serve other
// goroutines (TestWorkerPlacement checks this and the placement rule).
//
// The cost is in waking and starting workers. A worker that sleeps between
// loops is locked to its thread, so the runtime wakes it by handing a P to
// that thread rather than running it on whichever thread is awake:
// admission to first body went from 19-24 to 25-31 us at the median (the
// same runs, per schedule). And since bound threads exit at Close, every
// registry starts a fresh thread per worker: rt.new_registry_ms, a
// NewRegistry and Close of the 1B+1S fleet, went from 0.002 to 0.09 ms. A
// Team pays that once, at NewTeam, since its registry lives until
// Team.Close: its loops start no thread (TestTeamKeepsItsThreads), and a
// 64-iteration ParallelFor on two workers takes what a Submit and Wait on
// the same fleet take, 19-21 us at the median on a two-CPU host, where a
// registry per call took 90-99 us.
//
// # The per-chunk budget
//
// Between two bodies a Registry worker reads the monotonic clock (r.now,
// 33 ns) only for a consumer, and decides which reads it takes when a burst
// starts, by its role in the loop:
//
//	unthrottled, unobserved, clock-free schedule    0 reads per chunk
//	unthrottled, unobserved, AID thread past its
//	  last sampling point                           0 (asked every 32 chunks)
//	unthrottled, unobserved, schedule reads nowNs   1 (end)
//	throttled, or observed (Metrics or Capture)     2 (schedEnd, end)
//
// end (after the body, or the spin's last read) is the nowNs of the next
// Next: AID sampling divides real elapsed time by iterations, so a
// scheduler that reads its nowNs needs a real clock once per call.
// core.ReadsClock(sched, tid) says when thread tid's remaining calls do not:
// never for static, static-chunked, dynamic, guided and work-steal, which are
// handed the burst's first read throughout; from the sampling wait on for an
// AID-static/hybrid thread, whose wait, final allotment and drain (AID-hybrid's
// (1−pct) dynamic tail, AID-static's rounding residue) ignore nowNs; and from
// the drain on, its dynamic(m) tail, for an AID-dynamic thread. The answer
// never turns true again, so a worker that reads end asks every 32 chunks
// (the metrics batch's flush period) and, told no, hands the rest of its
// burst the last read. The
// clock-free path never asks. schedEnd (after Next) separates scheduler time
// from body time. The throttle stretches the body only: stretching Next too would put
// AID-dynamic's ~200 ns phase transitions on the small worker's critical
// path 1.9 times over. Metrics and capture split Sched from Running at the
// same stamp. So the small worker of a 1B+1S fleet still takes both reads.
//
// The rungs, per chunk (chunk 1, ~19 ns body, 1B+1S fleet, two-CPU host;
// the bench ladder's fine_chunk rungs, medians of five traced passes per
// column, run in rotating order; the rungs drain dynamic,1 unobserved):
//
//	                 2 reads always   schedEnd on a consumer   + end on a consumer
//	rt.chunk_ns          194 ns               152 ns                  83 ns
//	rt.self_ns           129 ns               102 ns                  41 ns
//
// fine_chunk's p50_ms went from 120.7 to 101.0 ms and its iters_per_s from
// 3.57e7 to 4.26e7 (10 alternating 20 s pairs, every pair faster).
//
// The AID drain row is worth most where the end-to-end median lives:
// fine_chunk's p50_ms is its aid-hybrid,80,1 loop, 20 % of whose 4 M
// iterations are drained at chunk 1. Asking per thread took p50_ms from 99.9
// to 81.4 ms (10 alternating 20 s pairs, every run below every run of the
// parent) with p90_ms, the aid-dynamic loop whose waiting threads still need
// the clock, unchanged. With AID-hybrid's SF pinned to {1.9, 1} on both
// sides, that loop went from 105-115 to 81-103 ms (medians of 15 loops, four
// rotations), so the gain is the clock's and not a luckier SF estimate's.
//
// The signal is a query and not a field of core.Assign, which every Next
// returns by value and which one field more would send from registers back
// to memory (core.Assign has the rule and its cost). The per-thread query
// moved the dynamic,1 rungs rt.chunk_ns 81.8 -> 87.5 ns and rt.self_ns
// 51.8 -> 49.7 ns over twelve rotating traced passes per side (spreads 13 %
// and 48 %); the clock-free path never asks.
//
// Metrics and capture pay up to two reads per chunk that the unobserved
// worker no longer pays, so turning them on costs more than it did:
// obs.metrics_overhead_pct, the fine registry rung with Metrics on against
// off, read 8 % with two reads always and 124 % now (medians of the passes
// above). The off path got faster; the on path is unchanged.
//
// # The per-loop budget
//
// Around its chunks a loop pays once for Submit, for the wait until a worker
// picks it up, and for its barrier. On the serve_open_lo workload (requests
// of 2048 iterations arriving at 125 loops/s, 1B+1S fleet, two-CPU host;
// medians per request, when every Submit built its scheduler) the time
// splits as:
//
//	generator lateness (the benchmark's, before Submit)   63-70 us
//	Submit                                                 13-22 us
//	  of which building the scheduler (core.new_us)       0.3-0.6 us
//	admission to first body                                18-28 us
//	last body to Wait return                               12-20 us
//
// Construction was not where Submit's time went but where its memory went:
// 8-25 objects and 860-2490 bytes per Submit+Wait of that loop. Now a
// released loop's ledger stays with the registry (its retirement flags in its
// fleet slot) and its scheduler goes back to core's spares (core.Recycle),
// and the next Submit re-arms both. The spares are one locked list per
// schedule and shape, which any goroutine takes from and the garbage
// collector never empties, so a schedule keeps as many as it had loops in
// flight at once (TestRegistrySparesSurviveGC); core.Schedule.Factory re-arms
// a spare through core.Resettable, which makes it the same scheduler as a new
// one (core.TestSparesMatchFresh). What is left is the Loop handle, its done
// channel, the default name, the published Iters and, for the AID schedules,
// the copy of the final SF table: 4 to 5 objects at any loop ID, held to that
// by TestRegistrySubmitAllocs. Re-arming took serve_open_lo's
// alloc_kb_per_op from 2.63 to 1.16 kB (./bench, 10 pairs); Submit's time
// moved less, rt.submit_us from 11-15 to 10 us.
//
// # Capture
//
// A captured loop's workers append to trace.Tapes, each to its own tape,
// which start empty and grow in blocks, taken from the pools that
// recordings hand their blocks back to; a tape's blocks never go back, so a
// loop's capture stays as its workers wrote it. BuildRecord hands each
// loop's tapes to one trace.Recorder, which orders, merges, compacts and
// trims them, and stamps each grant's cost from the platform speed model.
package rt
