package pool

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Range is a half-open iteration interval [Lo, Hi).
type Range struct {
	Lo, Hi int64
	// From is the owner core type of the shard the range was claimed from —
	// the chunk's provenance, which the simulator's tiered locality model
	// prices by topology distance. Ranges that do not originate from a
	// sharded pool leave it 0.
	From int32
}

// N returns the number of iterations in the range.
func (r Range) N() int64 { return r.Hi - r.Lo }

// shard is one sub-pool: a contiguous iteration range with a single claim
// counter. The two mutable fields live on separate cache lines, each alone:
// next is fetch-and-added by the shard's home threads on every chunk, and
// dead is written once by whichever thread observes the shard drained —
// sharing a line between them (or with the read-only bounds) would let that
// one store invalidate the line every home thread is spinning on, exactly
// the cross-core traffic the sharded pool exists to avoid. The immutable
// fields (base, end, owner) share a third line that stays in every cache in
// shared mode.
type shard struct {
	_    [64]byte
	next atomic.Int64 // first unclaimed iteration; may overshoot end
	_    [56]byte
	// dead is set once the shard has been observed drained; it lets the
	// hot path skip a doomed fetch-and-add (next never decreases, so a
	// drained shard stays drained).
	dead atomic.Bool
	_    [60]byte
	base int64
	end  int64
	// owner is the core type whose threads call this shard home, its index
	// in the pool: the provenance of every range claimed from it.
	owner int32
	_     [44]byte
}

// remaining returns the shard's unclaimed iteration count (never negative).
func (s *shard) remaining() int64 { return max(s.end-s.next.Load(), 0) }

// claim fetch-and-adds up to n iterations out of the shard: the one
// acquisition behind every fetch-and-add entry point. The request is clamped
// to the shard's extent first, so no add — successful, overshooting or
// failed — moves next by more than end-base (the no-overflow bound in
// doc.go), and the clip against end never forms lo+n beyond it. ok=false
// when the shard was already drained.
func (s *shard) claim(n int64) (lo, hi int64, ok bool) {
	n = min(n, s.end-s.base)
	lo = s.next.Add(n) - n
	if lo >= s.end {
		return 0, 0, false
	}
	return lo, lo + min(n, s.end-lo), true
}

// drain CAS-claims everything the shard has left, [lo, end): DrainAll's
// per-shard step. tries counts the CAS attempts; ok=false when the shard was
// already drained. Concurrent claims serialize against the CAS: work a thief
// wins first stays with the thief.
func (s *shard) drain() (lo int64, tries int, ok bool) {
	for {
		cur := s.next.Load()
		if cur >= s.end {
			return 0, tries, false
		}
		tries++
		if s.next.CompareAndSwap(cur, s.end) {
			return cur, tries, true
		}
	}
}

// ShardedWorkShare is the per-loop iteration pool: the iteration space is
// partitioned into one contiguous sub-pool per core type, sized
// proportionally to the number of threads of that type. Threads remove
// chunks from their home shard with a single fetch-and-add — libgomp's lock
// free work_share hot path, minus the cross-core-type contention — and fall
// over to the nearest foreign shard when their home shard drains. The
// partition is cut once per loop, by Reset, and never changes while the
// loop runs.
//
// All methods but Reset are safe for concurrent use. The zero value is an
// unarmed pool: Reset arms it, and re-arms it for each further loop.
// PoolAccess accounting counts atomic read-modify-write operations
// (fetch-and-add / CAS); read-only probes of a drained shard are not
// charged, matching the cost asymmetry of a shared-mode cache-line read
// versus an exclusive-mode RMW.
type ShardedWorkShare struct {
	ni int64
	// shards[t] is core type t's home shard; the shards tile [0, ni) in
	// type order. Cut by Reset, read-only while the loop runs.
	shards []shard
	_      [32]byte
	// foreign counts successful foreign-shard claims (handoff traffic).
	// Padded so the metric's line is not the line the hot path reads the
	// shard slice from.
	foreign atomic.Int64
	_       [56]byte
	// dist is the optional topology distance matrix installed by
	// SetTopology; nil means richest-only victim selection. Written once
	// before the pool is shared, read-only afterwards.
	dist [][]int
}

// SetTopology installs a topology distance matrix for victim selection:
// dist[a][b] is the distance between the clusters of core types a and b
// (0 = same cluster, larger = farther; amp.Platform.TypeDist produces it).
// With a topology installed, claims that fall over to a foreign shard pick
// the topologically nearest victim first — richest only within the nearest
// distance tier — and DrainAll visits foreign shards nearest-tier-first.
// With no topology (nil), selection is richest-only, the pre-topology
// behavior.
//
// SetTopology must be called before the pool is shared with other threads;
// it is not synchronized with the claim paths.
func (ws *ShardedWorkShare) SetTopology(dist [][]int) {
	if dist != nil && len(dist) < ws.NumTypes() {
		panic(fmt.Sprintf("pool: topology matrix covers %d types, pool has %d", len(dist), ws.NumTypes()))
	}
	ws.dist = dist
}

// distOf returns the topology distance between core types a and b; with no
// matrix installed every foreign type is equidistant.
func (ws *ShardedWorkShare) distOf(a, b int) int {
	if ws.dist == nil {
		if a == b {
			return 0
		}
		return 1
	}
	return ws.dist[a][b]
}

// victim picks the shard a claim that found its home shard drained moves on
// to: the topologically nearest shard with unclaimed work, seen from core
// type ht. Within the nearest tier the richest shard wins, or, with inOrder,
// the first in iteration order (DrainAll's fixed sweep). No shard is
// excluded by owner: every caller has just walked its home shard dry, and
// drained is absorbing, so it can not be picked again. -1 when every shard
// is drained.
func (ws *ShardedWorkShare) victim(ht int, inOrder bool) int {
	victim, best, bestD := -1, int64(0), math.MaxInt
	for i := range ws.shards {
		r := ws.shards[i].remaining()
		if r <= 0 {
			continue
		}
		if d := ws.distOf(ht, i); d < bestD || (d == bestD && r > best && !inOrder) {
			victim, best, bestD = i, r, d
		}
	}
	return victim
}

// propCut returns ni*cum/total without intermediate overflow: the 128-bit
// product keeps the cumulative proportional bound exact even when
// ni*cum exceeds int64 (the overflow the old int64 multiply hit for large
// trip counts x weight sums). Requires 0 <= cum <= total, which bounds the
// 128-bit quotient below 2^63.
func propCut(ni int64, cum, total int64) int64 {
	hi, lo := bits.Mul64(uint64(ni), uint64(cum))
	q, _ := bits.Div64(hi, lo, uint64(total))
	return int64(q)
}

// checkWeights validates a shard-weight slice and returns its sum.
func checkWeights(weights []int) int64 {
	if len(weights) == 0 {
		panic("pool: no shard weights")
	}
	total := int64(0)
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("pool: negative shard weight %d at %d", w, i))
		}
		total += int64(w)
	}
	if total <= 0 {
		panic("pool: shard weights sum to zero")
	}
	if total >= 1<<31 {
		panic(fmt.Sprintf("pool: shard weight sum %d too large", total))
	}
	return total
}

// NewSharded partitions [0, ni) into one shard per entry of weights, with
// shard sizes proportional to the weights (typically the per-core-type
// thread counts). A zero weight yields an empty shard; the weight sum must
// be positive. ni may be 0 (an empty loop); negative values panic.
//
// A pool may be built with fewer shards than the platform has core types
// (a single shard keeps the unsharded global consumption order of libgomp's
// work_share); home indexes beyond the shard count clamp to the last shard.
func NewSharded(ni int64, weights []int) *ShardedWorkShare {
	ws := &ShardedWorkShare{}
	ws.Reset(ni, weights)
	return ws
}

// Reset re-arms the pool for a new loop of ni iterations partitioned under
// weights, exactly as NewSharded cuts a new pool (which is an allocation plus
// this call), and zeroes the foreign-claim counter; an installed topology
// stays. Shard boundaries fall at overflow-safe cumulative proportional
// cuts, so they are monotone and tile [0, ni) exactly; a zero weight gets an
// empty shard, so every type has a home.
//
// Reset may not run concurrently with any claim path: it recycles the
// storage of the previous loop's shards, so the pool must be quiescent —
// every claimer of the previous loop has returned and none holds a Credit
// or a stashed Range it still means to serve.
func (ws *ShardedWorkShare) Reset(ni int64, weights []int) {
	if ni < 0 {
		panic(fmt.Sprintf("pool: negative iteration count %d", ni))
	}
	total := checkWeights(weights)
	ws.ni = ni
	if cap(ws.shards) < len(weights) {
		ws.shards = make([]shard, len(weights))
	}
	ws.shards = ws.shards[:len(weights)]
	lo, cum := int64(0), int64(0)
	for t, w := range weights {
		cum += int64(w)
		hi := propCut(ni, cum, total)
		ws.shards[t] = shard{base: lo, end: hi, owner: int32(t)}
		ws.shards[t].next.Store(lo)
		lo = hi
	}
	ws.foreign.Store(0)
}

// NI returns the total trip count of the pool.
func (ws *ShardedWorkShare) NI() int64 { return ws.ni }

// NumTypes returns the number of core types the pool partitions for, which
// is its number of shards.
func (ws *ShardedWorkShare) NumTypes() int { return len(ws.shards) }

// ForeignClaims returns the number of successful foreign-shard claims so
// far — the cross-core-type handoff traffic.
func (ws *ShardedWorkShare) ForeignClaims() int64 { return ws.foreign.Load() }

// Remaining returns the total number of unclaimed iterations across all
// shards. Iterations claimed but not yet executed (e.g. a thread-local
// stash or credit) do not count — they are spoken for.
func (ws *ShardedWorkShare) Remaining() int64 {
	var r int64
	for i := range ws.shards {
		r += ws.shards[i].remaining()
	}
	return r
}

// clampType maps a caller's core type onto its home shard: indexes beyond the
// type count clamp to the last type, preserving NewSharded's contract for
// pools built with fewer shards than the platform has types.
func (ws *ShardedWorkShare) clampType(t int) int { return min(t, len(ws.shards)-1) }

// badSteal reports an invalid steal request; out of line so the hot-path
// callers only pay a branch for it.
func badSteal(home int, chunk int64) {
	panic(fmt.Sprintf("pool: bad steal request (home %d, chunk %d)", home, chunk))
}

// acquire is the claim walk (doc.go, "Claim protocol") of the fetch-and-add
// families — strict, batched handoff, credit — which differ only in the sizes
// they pass: homeN iterations from the home shard while it is live, else
// foreignN from the nearest victim, both tapered as the shard drains when
// floor > 0 (shard.taper). The result is the claimed range as a Credit (the
// zero Credit when the pool is drained), its provenance (the owner core type
// of that shard; the caller's own clamped type when drained), and the RMWs
// performed: one per fetch-and-add, failed ones included, and at least 1 —
// the drained-pool observation the caller is charged for.
//
// The home fast path is one flag load plus one fetch-and-add on the home
// shard's private cache line; nothing on it is a func value.
func (ws *ShardedWorkShare) acquire(home int, homeN, foreignN, floor int64) (c Credit, from, accesses int) {
	if homeN <= 0 || home < 0 || foreignN < homeN {
		badSteal(home, homeN)
	}
	ht := ws.clampType(home)
	if s := &ws.shards[ht]; !s.dead.Load() {
		accesses++
		if lo, hi, ok := s.claim(s.taper(homeN, floor)); ok {
			return Credit{lo: lo, hi: hi, s: s}, ht, accesses
		}
		s.dead.Store(true)
	}
	for v := ws.victim(ht, false); v >= 0; v = ws.victim(ht, false) {
		s := &ws.shards[v]
		accesses++
		if lo, hi, ok := s.claim(s.taper(foreignN, floor)); ok {
			ws.foreign.Add(1)
			return Credit{lo: lo, hi: hi, s: s}, int(s.owner), accesses
		}
		s.dead.Store(true)
	}
	return Credit{}, ht, max(accesses, 1)
}

// TryStealBatchFrom removes up to chunk iterations from the caller's home
// shard, or — when that has drained — up to batch iterations from the
// nearest foreign shard in one RMW (see SetTopology); the caller keeps the
// surplus in thread-local state, amortizing the contended foreign access.
// batch == chunk is the strict removal path of the conventional schedules:
// every call claims at most chunk iterations, exactly like
// gomp_iter_dynamic_next. batch must be >= chunk. from is the claimed
// range's provenance, which the cost model prices by topology distance;
// from and accesses as in acquire.
func (ws *ShardedWorkShare) TryStealBatchFrom(home int, chunk, batch int64) (lo, hi int64, from, accesses int, ok bool) {
	c, from, accesses := ws.acquire(home, chunk, batch, 0)
	return c.lo, c.hi, from, accesses, c.s != nil
}

// walk is the same claim walk for the span, drain and guided paths, which
// differ only in how visit sizes and collects what it takes from one shard.
// It offers visit the shards in claim order — the caller's home shard, then
// victims nearest-first (see victim) — until visit reports it has all it
// wants; visit must leave a shard it is not done with drained, and reports
// the RMWs it tried. Returns the caller's clamped home type and the RMWs in
// all (at least 1, the drained-pool observation).
func (ws *ShardedWorkShare) walk(home int, inOrder bool, visit func(s *shard) (tries int, done bool)) (ht, accesses int) {
	ht = ws.clampType(home)
	for v := ht; v >= 0; v = ws.victim(ht, inOrder) {
		tries, done := visit(&ws.shards[v])
		if accesses += tries; done {
			return ht, accesses
		}
	}
	return ht, max(accesses, 1)
}

// TryStealFuncFrom removes a chunk whose size depends on the total number
// of remaining iterations, as the guided schedule requires. sizeOf receives
// the global remaining count (always > 0) and must return a positive size;
// the claim is CAS-based on a single shard (home preferred, then
// nearest-first) and clipped at the shard boundary. from is the claimed
// range's provenance; accesses counts CAS attempts including retries
// (minimum 1, the drained-pool observation).
func (ws *ShardedWorkShare) TryStealFuncFrom(home int, sizeOf func(remaining int64) int64) (lo, hi int64, from, accesses int, ok bool) {
	if home < 0 {
		panic(fmt.Sprintf("pool: home shard %d out of range", home))
	}
	ht, accesses := ws.walk(home, false, func(s *shard) (tries int, done bool) {
		for {
			cur := s.next.Load()
			if cur >= s.end {
				return tries, false
			}
			rem := ws.Remaining()
			if rem <= 0 {
				continue // raced to empty; the reload sees it
			}
			size := sizeOf(rem)
			if size <= 0 {
				panic(fmt.Sprintf("pool: sizeOf returned non-positive size %d", size))
			}
			size = min(size, s.end-cur)
			tries++
			if s.next.CompareAndSwap(cur, cur+size) {
				lo, hi, from, ok = cur, cur+size, int(s.owner), true
				return tries, true
			}
		}
	})
	if !ok {
		from = ht
	}
	return lo, hi, from, accesses, ok
}

// StealSpan claims up to want iterations across shards (home shard first,
// then nearest-first) and appends them to dst as contiguous,
// provenance-tagged ranges, returning the extended slice. The AID final
// assignment uses it so an allotment that exceeds the home shard is not
// silently truncated; dst is the caller's per-thread stash, so a span per
// AID phase allocates nothing once the stash has grown to the shard count.
// Nothing appended means the pool is drained. accesses counts the
// fetch-and-adds (minimum 1 on a drained pool).
func (ws *ShardedWorkShare) StealSpan(home int, want int64, dst []Range) (rs []Range, accesses int) {
	if want <= 0 {
		panic(fmt.Sprintf("pool: non-positive span want %d", want))
	}
	rs = dst
	_, accesses = ws.walk(home, false, func(s *shard) (tries int, done bool) {
		if s.remaining() > 0 {
			tries = 1
			if lo, hi, ok := s.claim(want); ok {
				rs = append(rs, Range{Lo: lo, Hi: hi, From: s.owner})
				want -= hi - lo
			}
		}
		return tries, want == 0
	})
	return rs, accesses
}

// DrainAll claims every remaining iteration, home shard first and foreign
// shards tier by tier in iteration order, as a list of contiguous,
// provenance-tagged ranges. The AID-static last-thread assignment uses it so
// SF rounding never orphans work. accesses counts CAS attempts (minimum 1).
func (ws *ShardedWorkShare) DrainAll(home int) (rs []Range, accesses int) {
	_, accesses = ws.walk(home, true, func(s *shard) (tries int, done bool) {
		lo, tries, ok := s.drain()
		if ok {
			rs = append(rs, Range{Lo: lo, Hi: s.end, From: s.owner})
		}
		return tries, false
	})
	return rs, accesses
}
