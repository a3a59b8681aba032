// Package rt is the user-facing runtime of the reproduction — the analog of
// libgomp as the paper modified it. It provides:
//
//   - Schedule: a parsed loop-schedule selection (method + parameters),
//     configurable programmatically or through environment variables that
//     mirror the paper's setup (§4.1): GOOMP_SCHEDULE plays the role of
//     OMP_SCHEDULE (the modified GCC defaults every loop to the `runtime`
//     schedule, so this variable governs all loops), and GOOMP_AMP_AFFINITY
//     selects the SB/BS thread-to-core binding convention like
//     GOMP_AMP_AFFINITY does in the paper (§4.3).
//   - Registry: the multi-loop executor — a persistent fleet of worker
//     goroutines (one per modeled CPU, with per-worker speed throttling
//     that emulates big/small cores) serving many concurrent loop
//     submissions, each with its own scheduler, sharded pool and barrier,
//     under a pluggable fairness policy (internal/fair). This is the
//     building block for serving many users' loops at once.
//   - Team: the single-loop fork/join facade over Registry, used by the
//     runnable examples. Go offers no thread-to-core affinity, so
//     wall-clock fidelity is limited; the discrete-event engine
//     (internal/sim, including the multi-loop sim.RunLoops) carries the
//     paper's evaluation, while Team and Registry demonstrate the
//     schedulers as real concurrent code.
//
// # The per-chunk budget
//
// Between two bodies a Registry worker pays, per chunk (chunk 1, ~18 ns
// body, 1B+1S fleet, two-CPU host; the bench ladder's fine_chunk rungs,
// medians of three alternating 10 s traced pairs, before -> after the chunk
// loop was merged into one path with chained stamps):
//
//	Dynamic.Next, pool claim included              31 ->  23 ns (untouched; probe noise)
//	body                                           18 ->  18 ns
//	registry chunk loop (rt.self_ns)              205 -> 104 ns
//	  clock reads  3-5 per chunk (r.now 33 ns, time.Now 57 ns) -> 2 x 33 ns
//	  small-worker spin, time.Now per turn -> r.now per turn, ~1 turn
//	  gen load, Next dispatch, cell bumps, body call: ~20 ns, unchanged
//	rt.chunk_ns                                   240 -> 158 ns
//
// The two reads that remain each have a consumer no cheaper source serves.
// end (after the body, or the spin's last read) is the nowNs of the next
// Next: AID sampling divides real elapsed time by iterations, so it needs
// a real clock once per call. schedEnd (after Next) separates scheduler
// time from body time: the throttle stretches the body only — stretching
// Next too would put AID-dynamic's ~200 ns phase transitions on the small
// worker's critical path 1.9 times over — and metrics and capture split
// Sched from Running at the same stamp, so they cost no reads of their own.
//
// # The per-loop budget
//
// Around its chunks a loop pays once for Submit, for the wait until a worker
// picks it up, and for its barrier. On the serve_open_lo workload (requests
// of 2048 iterations arriving at 125 loops/s, 1B+1S fleet, two-CPU host;
// medians per request, before the free list below) the time splits as:
//
//	generator lateness (the benchmark's, before Submit)   63-70 us
//	Submit                                                 13-22 us
//	  of which building the scheduler (core.new_us)       0.3-0.6 us
//	admission to first body                                18-28 us
//	last body to Wait return                               12-20 us
//
// Construction is not where Submit's time goes; it was where its memory
// went. Now a released loop's scheduler goes on the registry's free list,
// together with its cells and retirement flags, and a later Submit of the
// same schedule re-arms it through core.Resettable, which makes it the same
// scheduler as a new one (core.TestResetEquivalence). Per Submit+Wait of a
// 2048-iteration loop on that fleet, building -> re-arming:
//
//	objects, static .. aid-dynamic,1,5 (eight schedules)    8-25 -> 4-6
//	bytes                                               860-2490 -> 620-650
//	serve_open_lo alloc_kb_per_op (./bench, 10 pairs)     2.63 -> 1.16 kB
//	serve_open_hi, fine_chunk, coarse_chunk (3-6 pairs)  2.5-2.6 -> 1.1-1.2 kB
//
// What is left is the Loop handle, its done channel, the default name (and
// the boxed ID it formats), the published Iters and, for the AID schedules,
// the copy of the final SF table; TestRegistrySubmitAllocs holds it under
// 8 objects. Submit's time moved less: rt.submit_us read 11-15 us before and
// 10 us after in two alternating traced passes, admission to first body
// 15-17 us on both sides.
package rt
