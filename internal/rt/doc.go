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
package rt
