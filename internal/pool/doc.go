// Package pool implements the shared iteration pool that libgomp maintains
// per parallel loop in its work_share structure (§4.2 of the paper). There
// the pool is a pair (next, end): `next` is the first iteration not yet
// assigned to any thread, `end` one past the last iteration of the loop, and
// a thread removes ("steals") a chunk with an atomic fetch-and-add on
// `next`, so the pool is lock free. Here the pool (ShardedWorkShare) is a
// set of such pairs, one contiguous shard per core type, split once per
// loop by thread count as libgomp's pool is — a pool built with a single
// weight is exactly libgomp's pair — and every way of removing iterations
// is a size policy over one claim walk.
//
// # Hot-path invariants
//
// This section records the memory layout and coverage arguments the sharded
// pool's lock-free hot path depends on, so the next rewrite does not have to
// re-derive them.
//
// Shard layout. Each shard owns 64-byte-aligned slots for its two mutable
// words: `next` (fetch-and-added by every home claim) sits alone on one
// cache line, `dead` (stored once, when the shard is observed drained) on
// another, and the immutable bounds (base, end, owner) on a third that stays
// in every cache in shared mode. The layout is pinned by unsafe.Offsetof
// assertions in TestShardLayout (sharded_test.go); if you reorder fields,
// the test tells you which line you just merged. The ShardedWorkShare
// header keeps the shard slice the hot path reads away from the
// foreign-claims metric the same way.
//
// Claim protocol. The partition is one shard per core type, cut by Reset and
// read-only until the next Reset, so there is nothing to re-read and no
// conclusion to re-validate: there is one claim walk, which tries the
// caller's home shard, then victims nearest-first (victim, below), and
// concludes "drained" when every shard is. Claims are linearized by the
// per-shard `next` RMWs alone. The walk is written out twice, because the
// home-shard fast path — one flag load plus one fetch-and-add — must carry
// no func value:
//
//   - acquire is the walk of the fetch-and-add families. Each attempt is
//     shard.claim, the one fetch-and-add; the entry points only choose
//     sizes. TryStealBatchFrom asks for chunk at home and batch abroad
//     (batch == chunk is the strict path of the conventional schedules; a
//     larger batch leaves the surplus to the caller). TryStealCredit asks
//     for CreditBatch×chunk from either, tapered as the shard drains
//     (shard.taper), and keeps what it gets as its thread-local balance:
//     credit is that acquisition plus a Credit to draw it down from.
//   - walk is the same walk around a per-shard visit function, for the
//     paths that take from several shards or size by CAS. StealSpan visits
//     with shard.claim until its want is met; DrainAll visits every shard
//     with shard.drain, the one CAS-to-end loop, and is the only caller
//     that asks victim for iteration order inside a tier; TryStealFuncFrom
//     visits with a CAS of sizeOf(remaining) and stops at the first success.
//
// Every path reports the RMWs it performed (failed fetch-and-adds and CAS
// retries included, read-only probes of a drained shard not) and at least
// one, the drained-pool observation. The governing invariant of a shard is
//
//	unclaimed(s) ≡ [min(next, end), end)
//
// `next` only ever moves forward, so a shard once seen drained stays drained,
// and it cannot wrap: shard.claim clamps every request to the shard's
// extent, end − base, before the fetch-and-add (the CAS paths clip at end
// and never overshoot), and a goroutine that has seen a shard drained — its
// own failed add, the dead flag, a remaining() probe — never adds to it
// again, so with G goroutines claiming
//
//	next < end + (G+1)·(end − base) ≤ (G+2)·NI
//
// which stays below 2^63 for any loop a machine can finish (G = 1022
// goroutines leave NI up to 2^53); the size a caller asks for, which the
// GOOMP_SCHEDULE grammar lets reach 2^63−1, is not in the bound. The clip
// that follows an add compares n with end − lo and never forms lo + n
// beyond end; the callers' own products (CreditBatch×chunk here) saturate.
// TestShardedConcurrentClaimSizes drains pools from every entry point at
// once with requests up to 2^63−1.
//
// Who claims how. Dynamic (strict) and Guided (CAS) remove exactly what
// OpenMP says they remove, one RMW per chunk; AID-static/hybrid/dynamic use
// credit plus StealSpan. Moving Dynamic or Guided onto credit would change
// the PoolAccesses they report, which the simulator's golden digests
// (internal/sim/testdata/engine_golden.txt) and the benchmark's
// core.pool_accesses_per_chunk.* rungs pin; that is a behaviour change for a
// perf issue to argue with a measured gain, not something a consolidation
// may do in passing, so each scheduler stays on the family it had.
//
// Reset (one pool, many loops). Reset re-arms a pool for another loop: it
// cuts [0, ni) under the given weights exactly as NewSharded does —
// NewSharded is an allocation followed by Reset — in the storage of the
// previous loop's shards, which is what makes re-arming free of allocation.
// It is not concurrent with claimers: the caller must have joined every
// claimer of the previous loop first and must have dropped their Credits
// and stashed Ranges (core's schedulers reset their per-thread state in the
// same step). The foreign-claim counter starts over; an installed topology
// stays, being a property of the platform, not of the loop.
//
// Credit-based claiming. TryStealCredit batches the claim RMW: one
// fetch-and-add removes CreditBatch×chunk iterations, the first chunk is
// served, and the surplus is kept in a caller-owned Credit from which later
// calls draw with plain loads/stores. Coverage still holds because the
// credit is just a claimed-but-unserved range — exactly like a span's
// stashed tail — owned by one thread that serves all of it: nothing ever hands a
// balance back to the pool, so `next` never moves back.
//
// Nearest-victim steal order. A claim that falls over to a foreign shard
// picks its victim by topology distance, not by wealth alone: with a
// distance matrix installed (SetTopology, typically amp.Platform.TypeDist),
// victim — the one selection, used by both walks — ranks the shards that
// still have work by the distance between the claimer's core type and the
// shard's owner type and takes the richest shard of the NEAREST non-drained
// tier — a same-cluster handoff moves a cache line inside one LLC, a
// cross-package one pays an interconnect round-trip, so wealth only breaks
// ties within a tier. DrainAll walks the same tiers, in iteration order
// inside each. Without a matrix every foreign type is one tier away and the
// selection degenerates to richest-only. No shard is excluded by owner or
// by index: a walk reaches victim only after its home shards, and drained
// is absorbing, so a home shard cannot come back as a victim. Victim
// selection is a read-only heuristic over possibly stale remaining() reads
// — it never participates in the coverage argument above, which rests
// solely on the per-shard RMWs. Every claim is provenance-tagged
// with the victim shard's owner type (Range.From, the From results of the
// claim paths) so the cost model can price the handoff by the same
// distance tiers.
//
// The matrix is indexed by owner type, which is also the shard index. It is
// written once, before the pool is shared; installing a matrix with fewer
// rows than the pool has types panics at SetTopology time rather than
// racing at steal time.
package pool
