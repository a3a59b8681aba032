package pool

import "math"

// CreditBatch is the number of chunks a credit acquisition claims from the
// pool in one atomic RMW. A worker on the credit path (TryStealCredit) pays
// one fetch-and-add per CreditBatch chunks instead of one per chunk and
// draws the rest thread-locally, which is what removes the per-chunk
// cache-line contention at fine chunk granularity (the left end of the
// paper's Fig. 8 chunk sweep).
const CreditBatch = 8

// MaxCredit bounds one credit acquisition, in iterations: TryStealCredit
// serves at most MaxCredit iterations per call and banks at most MaxCredit
// per fetch-and-add, so a CreditSteal's Claimed always fits in an int32.
// Only a chunk of 2^28 or more, on a shard of more than MaxCredit
// iterations, ever meets the bound.
const MaxCredit = math.MaxInt32

// Credit is a worker's thread-local claim balance: a contiguous iteration
// range already removed from the pool but not yet served, plus the shard it
// was claimed from. Draws against the balance are plain loads and stores —
// no shared memory is touched — so only the acquisition (and the
// drained-pool conclusion) costs an atomic RMW. A balance is always served
// by its holder; nothing hands it back to the pool.
//
// A Credit belongs to exactly one worker and must never be shared. The zero
// value is an empty credit.
type Credit struct {
	lo, hi int64
	s      *shard
}

// N returns the number of unserved iterations in the credit.
func (c *Credit) N() int64 { return c.hi - c.lo }

// Empty reports whether the credit holds no iterations.
func (c *Credit) Empty() bool { return c.N() == 0 }

// CreditSteal reports what one TryStealCredit call did, for the caller's δ
// and pool-access accounting: Accesses counts atomic RMW operations
// (acquisition fetch-and-adds and drained-pool observations), Claimed the
// iterations newly removed from the pool (served plus credited), and From
// the owner core type of the shard the served range came from (its
// provenance; meaningful only on ok).
type CreditSteal struct {
	Accesses int
	Claimed  int64
	From     int
}

// taper sizes a credit acquisition of batch iterations (floor > 0: the
// chunk it serves) as its shard drains, guided style: the grab never
// exceeds remaining/(4·CreditBatch) iterations (a possibly stale
// shared-mode read — the clamp is a balance heuristic, never a correctness
// condition) and never shrinks below one chunk. Far from the end the full
// batch goes through, so the steady-state RMW amortization is untouched;
// the last few dozen grabs of a shard degenerate to strict single chunks,
// which keeps the end-of-loop imbalance of batched claiming at the strict
// path's level instead of multiplying it by CreditBatch. floor == 0 (the
// strict and handoff paths) passes the request through without a read.
func (s *shard) taper(batch, floor int64) int64 {
	if floor <= 0 {
		return batch
	}
	if cap := s.remaining() / (4 * CreditBatch); cap < batch {
		batch = cap
	}
	if batch < floor {
		return floor
	}
	return batch
}

// TryStealCredit removes up to chunk iterations (at most MaxCredit) with
// batched credit-based claiming: a claim that has to go to the pool acquires
// CreditBatch×chunk iterations (at most MaxCredit) in one fetch-and-add
// (TryStealBatchFrom's acquisition, asked for a tapered batch at home and
// abroad) and banks them in the caller's credit, from which this and
// subsequent calls draw without touching shared memory. The steady-state
// cost is therefore one atomic RMW per CreditBatch chunks and zero heap
// allocations.
//
// ok=false means the pool is drained AND the credit is empty.
func (ws *ShardedWorkShare) TryStealCredit(home int, chunk int64, c *Credit) (lo, hi int64, st CreditSteal, ok bool) {
	if chunk <= 0 || home < 0 {
		badSteal(home, chunk)
	}
	chunk = min(chunk, MaxCredit)
	if c.Empty() {
		batch := min(chunk*CreditBatch, MaxCredit) // chunk ≤ 2^31, so no wrap
		*c, _, st.Accesses = ws.acquire(home, batch, batch, chunk)
		st.Claimed = c.N()
		if c.s == nil {
			return 0, 0, st, false
		}
	}
	st.From = int(c.s.owner)
	lo = c.lo
	hi = lo + min(chunk, c.hi-lo)
	if c.lo = hi; c.lo >= c.hi {
		*c = Credit{}
	}
	return lo, hi, st, true
}
