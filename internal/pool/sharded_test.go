package pool

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestShardedPartition(t *testing.T) {
	cases := []struct {
		ni      int64
		weights []int
	}{
		{0, []int{1}},
		{1, []int{4, 4}},
		{10, []int{1, 0}},
		{103, []int{2, 2}},
		{1000, []int{1, 7}},
		{9999, []int{3, 2, 1}},
	}
	for _, c := range cases {
		ws := NewSharded(c.ni, c.weights)
		if ws.NI() != c.ni {
			t.Errorf("NI() = %d, want %d", ws.NI(), c.ni)
		}
		if ws.NumTypes() != len(c.weights) {
			t.Errorf("NumTypes() = %d, want %d", ws.NumTypes(), len(c.weights))
		}
		// Shards must tile [0, ni) exactly.
		var total int64
		lo := int64(0)
		for i := range ws.shards {
			s := &ws.shards[i]
			if s.base != lo {
				t.Errorf("ni=%d weights=%v: shard %d starts at %d, want %d", c.ni, c.weights, i, s.base, lo)
			}
			if s.end < s.base {
				t.Errorf("shard %d inverted: [%d,%d)", i, s.base, s.end)
			}
			total += s.end - s.base
			lo = s.end
		}
		if total != c.ni || lo != c.ni {
			t.Errorf("ni=%d weights=%v: shards cover %d ending at %d", c.ni, c.weights, total, lo)
		}
		if ws.Remaining() != c.ni {
			t.Errorf("fresh pool Remaining() = %d, want %d", ws.Remaining(), c.ni)
		}
	}
}

func TestShardedValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSharded(-1, []int{1}) },
		func() { NewSharded(10, nil) },
		func() { NewSharded(10, []int{0, 0}) },
		func() { NewSharded(10, []int{-1, 2}) },
		func() { NewSharded(10, []int{1}).TryStealBatchFrom(0, 0, 0) },
		func() { NewSharded(10, []int{1}).TryStealBatchFrom(-1, 1, 1) },
		func() { NewSharded(10, []int{1}).TryStealBatchFrom(0, 4, 2) },
		func() { NewSharded(10, []int{1}).TryStealCredit(0, 0, new(Credit)) },
		func() { NewSharded(10, []int{1}).StealSpan(0, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid use did not panic")
				}
			}()
			f()
		}()
	}
}

// cover drains the pool via fn and asserts every iteration was claimed
// exactly once.
func cover(t *testing.T, ni int64, fn func(mark func(lo, hi int64))) {
	t.Helper()
	seen := make([]int32, ni)
	fn(func(lo, hi int64) {
		if lo < 0 || hi > ni || lo >= hi {
			t.Fatalf("bad range [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d claimed %d times", i, c)
		}
	}
}

// claimers are the five claim entry points (TryStealBatchFrom twice: strict
// and with batched handoff) behind one shape: claim about n iterations for
// home, append what came back to dst. Nothing appended means drained.
var claimers = []struct {
	name  string
	claim func(ws *ShardedWorkShare, home int, n int64, c *Credit, dst []Range) []Range
}{
	{"strict", func(ws *ShardedWorkShare, home int, n int64, _ *Credit, dst []Range) []Range {
		lo, hi, from, _, _ := ws.TryStealBatchFrom(home, n, n)
		return append(dst, Range{Lo: lo, Hi: hi, From: int32(from)})
	}},
	{"batch", func(ws *ShardedWorkShare, home int, n int64, _ *Credit, dst []Range) []Range {
		lo, hi, from, _, _ := ws.TryStealBatchFrom(home, 2, n)
		return append(dst, Range{Lo: lo, Hi: hi, From: int32(from)})
	}},
	{"credit", func(ws *ShardedWorkShare, home int, n int64, c *Credit, dst []Range) []Range {
		lo, hi, st, _ := ws.TryStealCredit(home, n, c)
		return append(dst, Range{Lo: lo, Hi: hi, From: int32(st.From)})
	}},
	{"func", func(ws *ShardedWorkShare, home int, n int64, _ *Credit, dst []Range) []Range {
		lo, hi, from, _, _ := ws.TryStealFuncFrom(home, func(int64) int64 { return n })
		return append(dst, Range{Lo: lo, Hi: hi, From: int32(from)})
	}},
	{"span", func(ws *ShardedWorkShare, home int, n int64, _ *Credit, dst []Range) []Range {
		rs, _ := ws.StealSpan(home, n, dst)
		return rs
	}},
	{"drain", func(ws *ShardedWorkShare, home int, _ int64, _ *Credit, dst []Range) []Range {
		rs, _ := ws.DrainAll(home)
		return append(dst, rs...)
	}},
}

// claimSizes are the request sizes every entry point must survive on a pool
// whose shards hold extent iterations: an ordinary chunk, exactly one shard,
// one more than a shard, and the two sizes whose sums and products leave
// int64 (the parser accepts both as a chunk).
func claimSizes(extent int64) []int64 {
	return []int64{7, extent, extent + 1, 1 << 62, math.MaxInt64}
}

// spanTotal sums the iterations of rs; drained claimers append an empty
// range, which counts for nothing.
func spanTotal(rs []Range) int64 {
	var n int64
	for _, r := range rs {
		n += r.N()
	}
	return n
}

func TestShardedStealCoverage(t *testing.T) {
	const ni = 1003
	for _, cl := range claimers {
		for _, n := range claimSizes(ni / 2) {
			t.Run(fmt.Sprintf("%s/n=%d", cl.name, n), func(t *testing.T) {
				cover(t, ni, func(mark func(lo, hi int64)) {
					ws := NewSharded(ni, []int{2, 2})
					var c Credit
					for home := 0; ; home = 1 - home {
						rs := cl.claim(ws, home, n, &c, nil)
						if spanTotal(rs) == 0 {
							break
						}
						for _, r := range rs {
							mark(r.Lo, r.Hi)
						}
					}
					if !c.Empty() || ws.Remaining() != 0 {
						t.Fatalf("drained with %d credited, %d unclaimed", c.N(), ws.Remaining())
					}
				})
			})
		}
	}
	// A failed steal still reports the access it paid.
	ws := NewSharded(0, []int{2, 2})
	if _, _, _, acc, ok := ws.TryStealBatchFrom(0, 7, 7); ok || acc < 1 {
		t.Fatalf("steal from an empty pool: ok=%v accesses=%d", ok, acc)
	}
}

func TestShardedHandoffBatches(t *testing.T) {
	// Home shard 0 is empty (zero weight); a chunk-1 batched steal must
	// come back from the foreign shard with up to batch iterations.
	ws := NewSharded(100, []int{0, 1})
	lo, hi, _, _, ok := ws.TryStealBatchFrom(0, 1, 8)
	if !ok || hi-lo != 8 {
		t.Fatalf("handoff claim = [%d,%d) ok=%v, want 8 iterations", lo, hi, ok)
	}
	// Strict steal never exceeds the requested chunk, even on handoff.
	lo, hi, _, _, ok = ws.TryStealBatchFrom(0, 3, 3)
	if !ok || hi-lo != 3 {
		t.Fatalf("strict handoff claim = [%d,%d) ok=%v, want 3 iterations", lo, hi, ok)
	}
}

func TestShardedHomeClamp(t *testing.T) {
	ws := NewSharded(10, []int{4})
	lo, hi, _, _, ok := ws.TryStealBatchFrom(3, 5, 5) // home beyond shard count clamps
	if !ok || lo != 0 || hi != 5 {
		t.Fatalf("clamped steal = [%d,%d) ok=%v", lo, hi, ok)
	}
}

func TestShardedSpanAndDrain(t *testing.T) {
	const ni = 100
	cover(t, ni, func(mark func(lo, hi int64)) {
		ws := NewSharded(ni, []int{1, 1})
		// A span bigger than the home shard must cross into the other.
		// The span lands behind whatever the caller's stash already holds,
		// in the stash's own backing array.
		kept := Range{Lo: -2, Hi: -1}
		stash := append(make([]Range, 0, 4), kept)
		rs, acc := ws.StealSpan(0, 70, stash)
		if len(rs) != 3 || rs[0] != kept || &rs[0] != &stash[0] {
			t.Fatalf("span = %v, want 2 ranges appended in place behind %v", rs, kept)
		}
		rs = rs[1:]
		if acc < 2 || spanTotal(rs) != 70 {
			t.Fatalf("span = %v (accesses %d), want 70 iterations over 2 ranges", rs, acc)
		}
		for _, r := range rs {
			mark(r.Lo, r.Hi)
		}
		// DrainAll takes the rest.
		rs, _ = ws.DrainAll(1)
		if spanTotal(rs) != 30 {
			t.Fatalf("drain = %v, want the remaining 30", rs)
		}
		for _, r := range rs {
			mark(r.Lo, r.Hi)
		}
		if ws.Remaining() != 0 {
			t.Fatalf("Remaining() = %d after drain", ws.Remaining())
		}
		if rs, _ := ws.DrainAll(0); len(rs) != 0 {
			t.Fatalf("second drain returned %v", rs)
		}
	})
}

func TestShardedStealFunc(t *testing.T) {
	const ni = 1000
	cover(t, ni, func(mark func(lo, hi int64)) {
		ws := NewSharded(ni, []int{2, 2})
		first := true
		for {
			lo, hi, _, _, ok := ws.TryStealFuncFrom(1, func(rem int64) int64 {
				if first {
					if rem != ni {
						t.Fatalf("first sizeOf saw remaining %d, want %d", rem, ni)
					}
					first = false
				}
				size := rem / 4
				if size < 1 {
					size = 1
				}
				return size
			})
			if !ok {
				break
			}
			mark(lo, hi)
		}
	})
}

// TestShardedConcurrentCoverage hammers one pool from many goroutines mixing
// all removal paths and asserts exactly-once coverage (run under -race).
func TestShardedConcurrentCoverage(t *testing.T) {
	const ni = 200000
	const workers = 8
	ws := NewSharded(ni, []int{1, 3})
	seen := make([]atomic.Int32, ni)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			home := g % 2
			for n := 0; ; n++ {
				var lo, hi int64
				var ok bool
				switch {
				case g == 0 && n%64 == 63:
					rs, _ := ws.StealSpan(home, 50, nil)
					for _, r := range rs {
						for i := r.Lo; i < r.Hi; i++ {
							seen[i].Add(1)
						}
					}
					ok = len(rs) > 0
				case n%3 == 0:
					lo, hi, _, _, ok = ws.TryStealBatchFrom(home, 2, 8)
				default:
					lo, hi, _, _, ok = ws.TryStealBatchFrom(home, 3, 3)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
				if !ok {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("iteration %d claimed %d times", i, c)
		}
	}
}

// TestShardedReset: a pool that was partly drained and then drained is,
// after Reset, the pool NewSharded would build — same shards, the foreign
// counter back at zero, the topology still installed — in the storage it
// had, and every claim entry point covers the new loop exactly once. The
// zero pool is a pool no Reset has armed yet.
func TestShardedReset(t *testing.T) {
	dist := [][]int{{0, 1, 2}, {1, 0, 2}, {2, 2, 0}}
	for _, cl := range claimers {
		ws := new(ShardedWorkShare)
		ws.Reset(900, []int{2, 1, 1})
		ws.SetTopology(dist)
		var c Credit
		ws.TryStealCredit(0, 5, &c)
		ws.TryStealBatchFrom(1, 1000, 1000) // drains shard 1
		ws.TryStealBatchFrom(1, 1, 1)       // and claims abroad
		ws.DrainAll(1)
		if ws.ForeignClaims() == 0 || ws.Remaining() != 0 {
			t.Fatalf("set-up: %d foreign claims, %d remaining", ws.ForeignClaims(), ws.Remaining())
		}
		shards := &ws.shards[0]
		for round, loop := range []struct {
			ni      int64
			weights []int
		}{{4000, []int{1, 2, 1}}, {0, []int{1, 1, 1}}, {77, []int{5, 0, 1}}} {
			ws.Reset(loop.ni, loop.weights)
			fresh := NewSharded(loop.ni, loop.weights)
			if &ws.shards[0] != shards {
				t.Errorf("%s round %d: Reset did not reuse the shards", cl.name, round)
			}
			if ws.NI() != loop.ni || ws.Remaining() != loop.ni || ws.ForeignClaims() != 0 {
				t.Errorf("%s round %d: NI %d, remaining %d, foreign %d after Reset to %d",
					cl.name, round, ws.NI(), ws.Remaining(), ws.ForeignClaims(), loop.ni)
			}
			if len(ws.shards) != len(fresh.shards) {
				t.Fatalf("%s round %d: %d shards, a new pool has %d", cl.name, round, len(ws.shards), len(fresh.shards))
			}
			for i := range ws.shards {
				s, f := &ws.shards[i], &fresh.shards[i]
				if s.base != f.base || s.end != f.end || s.owner != f.owner || s.next.Load() != f.next.Load() || s.dead.Load() {
					t.Errorf("%s round %d: shard %d is [%d,%d) owner %d next %d dead %v, a new pool's is [%d,%d) owner %d",
						cl.name, round, i, s.base, s.end, s.owner, s.next.Load(), s.dead.Load(), f.base, f.end, f.owner)
				}
			}
			if ws.distOf(0, 2) != 2 {
				t.Errorf("%s round %d: Reset dropped the topology", cl.name, round)
			}
			cover(t, loop.ni, func(mark func(lo, hi int64)) {
				var c Credit
				var dst []Range
				for home := 0; ; home = (home + 1) % 3 {
					dst = cl.claim(ws, home, 7, &c, dst[:0])
					if spanTotal(dst) == 0 {
						return
					}
					for _, r := range dst {
						if r.N() > 0 {
							mark(r.Lo, r.Hi)
						}
					}
				}
			})
		}
	}
}

// TestShardedConcurrentClaimSizes drains short two-type pools from six
// claimers, one entry point each, at every claim size — an ordinary chunk,
// one shard, more than a shard, and the sizes whose sums and products leave
// int64 — and asserts exactly-once coverage: the no-overflow bound of
// doc.go with G goroutines adding at once. No claimer may retire holding
// credit.
func TestShardedConcurrentClaimSizes(t *testing.T) {
	const ni, workers = 4096, 6
	for _, size := range claimSizes(ni / 2) {
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			for round := 0; round < 25; round++ {
				ws := NewSharded(ni, []int{1, 1})
				seen := make([]atomic.Int32, ni)
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						claim := claimers[(g+round)%len(claimers)].claim
						var c Credit
						var rs []Range
						for {
							rs = claim(ws, g%2, size, &c, rs[:0])
							for _, r := range rs {
								if r.Lo < 0 || r.Hi > ni || r.Lo > r.Hi {
									t.Errorf("claimer %d got bad range [%d,%d)", g, r.Lo, r.Hi)
									return
								}
								for i := r.Lo; i < r.Hi; i++ {
									seen[i].Add(1)
								}
							}
							if spanTotal(rs) == 0 {
								if !c.Empty() {
									t.Errorf("claimer %d retired holding %d credited iterations", g, c.N())
								}
								return
							}
						}
					}(g)
				}
				wg.Wait()
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("round %d: iteration %d claimed %d times", round, i, c)
					}
				}
			}
		})
	}
}

// TestShardLayout is the false-sharing guard for the shard struct: the two
// mutable fields must each sit alone on their own 64-byte cache line —
// next because home threads fetch-and-add it on every chunk, dead because
// a foreign thief's store to it must not invalidate the line next lives on
// (the regression this pins: base/end/dead used to share next's line).
func TestShardLayout(t *testing.T) {
	var s shard
	if got := unsafe.Sizeof(s); got != 256 {
		t.Errorf("sizeof(shard) = %d, want 256", got)
	}
	offNext := unsafe.Offsetof(s.next)
	offDead := unsafe.Offsetof(s.dead)
	offBase := unsafe.Offsetof(s.base)
	if offNext != 64 {
		t.Errorf("offsetof(next) = %d, want 64", offNext)
	}
	if offDead != 128 {
		t.Errorf("offsetof(dead) = %d, want 128", offDead)
	}
	if offBase != 192 {
		t.Errorf("offsetof(base) = %d, want 192 (read-only fields off the mutable lines)", offBase)
	}
	// No other field may share next's or dead's cache line.
	lineOf := func(off uintptr) uintptr { return off / 64 }
	if lineOf(offDead) == lineOf(offNext) || lineOf(offBase) == lineOf(offNext) ||
		lineOf(unsafe.Offsetof(s.end)) == lineOf(offNext) ||
		lineOf(unsafe.Offsetof(s.owner)) == lineOf(offNext) {
		t.Error("a field shares next's cache line")
	}
	if lineOf(offBase) == lineOf(offDead) {
		t.Error("base shares dead's cache line")
	}
	// The pool's foreign-claim counter, written on every foreign claim, is
	// off the line the hot path reads the shard slice from.
	var ws ShardedWorkShare
	if lineOf(unsafe.Offsetof(ws.foreign)) == lineOf(unsafe.Offsetof(ws.shards)) {
		t.Error("foreign shares the shard slice's cache line")
	}
}

// TestShardedPartitionNearOverflow pins the overflow fix in the cumulative
// proportional split: with ni near MaxInt64 the old int64 multiply
// ni*cum wrapped negative and produced inverted shard bounds. The 128-bit
// split must tile [0, ni) monotonically for any weight sum.
func TestShardedPartitionNearOverflow(t *testing.T) {
	for _, c := range []struct {
		ni      int64
		weights []int
	}{
		{math.MaxInt64, []int{1, 1}},
		{math.MaxInt64 - 1, []int{3, 5}},
		{math.MaxInt64 / 2, []int{7, 1, 9}},
		{1 << 62, []int{1000, 1}},
	} {
		ws := NewSharded(c.ni, c.weights)
		lo := int64(0)
		for i := range ws.shards {
			s := &ws.shards[i]
			if s.base != lo || s.end < s.base {
				t.Fatalf("ni=%d weights=%v: shard %d = [%d,%d), prev end %d",
					c.ni, c.weights, i, s.base, s.end, lo)
			}
			lo = s.end
		}
		if lo != c.ni {
			t.Fatalf("ni=%d weights=%v: shards end at %d", c.ni, c.weights, lo)
		}
		// Shares must be proportional, not collapsed: with weights {1,1} the
		// first shard holds half the space.
		if len(c.weights) == 2 && c.weights[0] == c.weights[1] {
			if got := ws.shards[0].end; got != c.ni/2 {
				t.Fatalf("ni=%d: even split boundary at %d, want %d", c.ni, got, c.ni/2)
			}
		}
	}
}

func TestShardedWeightSumTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("huge weight sum did not panic")
		}
	}()
	NewSharded(10, []int{math.MaxInt32, math.MaxInt32})
}
