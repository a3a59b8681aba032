// Package pool implements the shared iteration pool that libgomp maintains
// per parallel loop in its work_share structure (§4.2 of the paper). There
// the pool is a pair (next, end): `next` is the first iteration not yet
// assigned to any thread, `end` one past the last iteration of the loop, and
// a thread removes ("steals") a chunk with an atomic fetch-and-add on
// `next`, so the pool is lock free. Here the pool (ShardedWorkShare) is a
// set of such pairs, one contiguous shard per core type — a pool built with
// a single weight is exactly libgomp's pair — and every way of removing
// iterations is a size policy over one claim walk.
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
// assertions in reweight_test.go; if you reorder fields, the test tells you
// which line you just merged. The ShardedWorkShare header keeps the hot
// gen/seq words away from the foreign-claims metric the same way.
//
// Claim protocol. There is one claim walk: read the seqlock (`seq`), load
// the generation pointer, try the caller's home shards in iteration order,
// then victims nearest-first (victim, below), and — only if every shard
// looks drained — validate the "drained" conclusion with drainedValid(seq),
// starting over on the new generation when it does not hold. Successful
// claims are linearized by the per-shard `next` RMWs alone and never consult
// the seqlock; only the drained conclusion can be stale, because Reweight
// may have moved the remaining work to a generation the claimer has not
// seen. The walk is written out twice, because the home-shard fast path —
// one flag load plus one fetch-and-add — must carry no func value:
//
//   - acquire is the walk of the fetch-and-add families. Each attempt is
//     shard.claim, the one fetch-and-add; the entry points only choose
//     sizes. TryStealBatchFrom asks for chunk at home and batch abroad
//     (batch == chunk is the strict path of the conventional schedules,
//     batch == HandoffBatch×chunk the handoff stash). TryStealCredit asks
//     for CreditBatch×chunk from either, tapered as the shard drains
//     (shard.taper), and keeps what it gets as its thread-local balance:
//     credit is that acquisition plus a Credit to draw it down from.
//   - walk is the same walk around a per-shard visit function, for the
//     paths that take from several shards or size by CAS. StealSpan visits
//     with shard.claim until its want is met; DrainAll visits every shard
//     with shard.drain, the one CAS-to-end loop (Reweight's too), and is the
//     only caller that asks victim for iteration order inside a tier;
//     TryStealFuncFrom visits with a CAS of sizeOf(remaining) and stops at
//     the first success.
//
// Every path reports the RMWs it performed (failed fetch-and-adds and CAS
// retries included, read-only probes of a drained shard not) and at least
// one, the drained-pool observation. The governing invariant of a live
// shard is
//
//	unclaimed(s) ≡ [min(next, end), end)
//
// `next` only ever moves forward — with the single exception of a credit
// return, below — and it cannot wrap: shard.claim clamps every request to
// the shard's extent, end − base, before the fetch-and-add (the CAS paths
// clip at end and never overshoot), and a goroutine that has seen a shard
// drained — its own failed add, the dead flag, a remaining() probe — never
// adds to it again, so with G goroutines claiming
//
//	next < end + (G+1)·(end − base) ≤ (G+2)·NI
//
// which stays below 2^63 for any loop a machine can finish (G = 1022
// goroutines leave NI up to 2^53); the size a caller asks for, which the
// GOOMP_SCHEDULE grammar lets reach 2^63−1, is not in the bound. The clip
// that follows an add compares n with end − lo and never forms lo + n
// beyond end; the callers' own products (HandoffBatch×n in core,
// CreditBatch×chunk here) saturate.
//
// Who claims how. Dynamic (strict) and Guided (CAS) remove exactly what
// OpenMP says they remove, one RMW per chunk; AID-auto's sampling uses the
// handoff batch on a single shard; AID-static/hybrid/dynamic use credit plus
// StealSpan. Moving Dynamic, Guided or AID-auto onto credit would change the
// PoolAccesses they report, which the simulator's golden digests
// (internal/sim/testdata/engine_golden.txt) and the benchmark's
// core.pool_accesses_per_chunk.* rungs pin; that is a behaviour change for a
// perf issue to argue with a measured gain, not something a consolidation
// may do in passing, so each scheduler stays on the family it had.
//
// Reweight (generation + seqlock). Reweight bumps `seq` to odd, CAS-drains
// each shard of the current generation to its end (collecting the
// leftovers), publishes a freshly cut generation, and bumps `seq` to even.
// Claims racing the drain either win their range before the CAS lands (the
// work is theirs; Reweight collects only what is left) or lose and observe
// an empty shard. A claimer that concludes "drained" while `seq` was odd or
// changed re-reads the generation and retries, so work never vanishes
// across a re-cut: every iteration is either claimed by exactly one thread
// in the old generation or carried into exactly one shard of the new one.
//
// Reset (one pool, many loops). Reset re-arms a pool for another loop: it
// cuts [0, ni) under the given weights exactly as NewSharded does — NewSharded
// is an allocation followed by Reset — and publishes the result the way
// Reweight publishes a generation, `seq` odd before and even after, so
// whatever still carries the previous loop's sequence stamp can never be
// taken for current. Unlike Reweight it is not concurrent with claimers: the
// new generation is cut in the storage of the one it replaces, which is what
// makes re-arming free of allocation, so the caller must have joined every
// claimer of the previous loop first and must have dropped their Credits and
// stashed Ranges (core's schedulers reset their per-thread state in the same
// step). The foreign-claim and re-partition counters start over; an installed
// topology stays, being a property of the platform, not of the loop.
//
// Credit-based claiming. TryStealCredit batches the claim RMW: one
// fetch-and-add removes CreditBatch×chunk iterations, the first chunk is
// served, and the surplus is kept in a caller-owned Credit from which later
// calls draw with plain loads/stores. Coverage still holds because the
// credit is just a claimed-but-unserved range — exactly like the handoff
// stash — owned by one thread that either serves it or returns it:
//
//   - A return (returnCredit) is a single CAS rolling `next` back from the
//     credit's upper bound to its lower bound. It can only succeed while
//     `next` still equals the upper bound, i.e. no claim intervened, so a
//     successful return restores the invariant above with the returned
//     range unclaimed — indistinguishable from it never having been taken.
//   - A return is refused outright when the credit's upper bound equals the
//     shard's end. Reweight concludes a shard drained precisely when it
//     reads next ≥ end (and then breaks WITHOUT writing `next`), so an
//     end-of-shard rollback could succeed after Reweight already carried
//     zero leftovers forward — resurrecting iterations on a superseded
//     generation no claimer will ever visit. The strict `hi < end` guard
//     makes that impossible: `next` can never drop from ≥ end to < end, so
//     "drained" is an absorbing observation per shard.
//   - Against a racing Reweight drain the return linearizes cleanly: if the
//     drain CAS wins, `next` is at end and the return fails (the thread
//     keeps serving its credit — iterations it owns); if the return wins,
//     the drain CAS fails, re-reads the rolled-back `next`, and collects
//     the returned range into the new generation.
//
// Credit holders notice a published re-cut via the seq stamp captured at
// acquisition and offer their balance back once; whichever way that race
// resolves, each iteration retains exactly one owner. The conformance
// harness and the Reweight stress tests (raceReweight in reweight_test.go)
// exercise every entry point, at ordinary sizes and at sizes beyond a shard
// up to 2^63−1, against concurrent re-cuts and assert exactly-once coverage
// per iteration.
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
// solely on the per-shard RMWs and the seqlock. Every claim is provenance-tagged
// with the victim shard's owner type (Range.From, the From results of the
// claim paths) so the cost model can price the handoff by the same
// distance tiers.
//
// Interaction with Reweight: the matrix is indexed by owner TYPE, not by
// shard index, so it survives re-cuts unchanged — a re-weighted generation
// may split a type's share into several shards, but each keeps its owner
// tag and therefore its distance tier. The matrix itself is written once,
// before the pool is shared, and never by Reweight; installing a matrix
// with fewer rows than the pool has types panics at SetTopology time
// rather than racing at steal time.
package pool
