// Package obs is the flight-recorder observability layer: always-on,
// lock-free runtime metrics for both execution engines, plus the offline
// analysis that turns a recorded trace.Record into a utilization report,
// steal matrices and Chrome trace-event exports.
//
// The live half is Metrics: one cache-line-sized counter Cell per worker,
// scraped at any time into a Snapshot (e.g. by aidserve's -metrics
// Prometheus endpoint), and Ledger, the one accounting of a loop's grants
// that both engines call on their chunk-grant hot path. The offline half is
// Analyze/WriteReport/ExportChrome, the cmd/aidstat backend. Analyze adds
// only the steals by tier to the record's trace.Digest, which owns the
// per-thread busy/sched/sync times, the per-loop summaries and the one
// imbalance formula, 100·(max − min)/max busy — the same numbers
// replay.Diff compares.
//
// # Counter invariants
//
// The hot-path rules mirror pool/doc.go's "Hot-path invariants": every
// property below is load-bearing for the zero-allocation guarantee and is
// pinned by a layout or allocation test.
//
//  1. One cell per worker, one writer per cell. Cell tid is updated only by
//     worker tid while the worker serves a loop, through its lane of the
//     loop's ledger. Because each counter has a single writer, updates are
//     owner-side read-modify-writes expressed as atomic Load+Store pairs —
//     plain MOV loads and stores on x86, no LOCK prefix — which keeps the
//     metrics-on hot path within the overhead budget while staying exactly
//     as visible to concurrent scrapers (and to the race detector) as
//     atomic.Add would be. A lane adds into a plain batch and applies it to
//     its cell every 32 chunks and when its worker leaves the loop.
//
//  2. Cells are exactly two cache lines (128 bytes, pinned by
//     TestCellLayout), and so are a ledger's lanes (TestRegistryHotLayout).
//     Neighbouring workers' per-chunk updates therefore never share a line,
//     the same false-sharing rule the pool's shard obeys. A loop owns its
//     workers' barrier waits only when it owns its fleet: a team's lanes
//     charge them, a fleet's do not (Ledger).
//
//  3. Updates never allocate. Cell methods touch only the cell's own
//     fields; Snapshot (which allocates its result slices) runs on cold
//     paths only — barrier release, endpoint scrapes, end-of-run reports.
//     The registry's metrics-on steady state is gated at zero allocations
//     per chunk by TestRegistryMetricsSteadyStateAllocs.
//
//  4. A Snapshot is per-counter monotonic, not a consistent cut. Scrapers
//     read the cells with atomic loads while workers keep counting, so two
//     counters in one Snapshot may be skewed by in-flight chunks; each
//     counter individually never goes backwards between Snapshots of the
//     same Metrics. Delta of two such snapshots is therefore always
//     non-negative per counter.
//
//  5. Quiescent-merge writes are the one exception to rule 1: Ledger.Release,
//     the loop's barrier release, charges a team's barrier waits to cells
//     it does not own. By then every worker has retired from the loop — the
//     cells are quiescent — and the engines serialize the release (the
//     registry under its lock, the simulator on its single goroutine), so
//     the single-writer discipline is preserved in time rather than by
//     thread identity. A fleet's release writes no cell: a retired fleet
//     worker's wait belongs to the fleet, which counts it once.
//
// What metrics cost is mostly the clock: busy and sched time come from the
// registry chunk loop's two stamps, which an unobserved, unthrottled worker
// does not take (internal/rt/doc.go, "The per-chunk budget").
//
// Steals are bucketed by provenance tier — TierHome (the chunk came from
// the worker's home shard or a shared pool), TierSamePkg (a foreign shard
// one package hop away) and TierCross (across packages) — using the same
// platform TypeDist matrix the simulator's tiered locality charges use, so
// live counters and offline trace analysis agree on what "remote" means.
package obs
