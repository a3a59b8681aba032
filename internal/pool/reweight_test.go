package pool

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

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
		g := ws.gen.Load()
		lo := int64(0)
		for i := range g.shards {
			s := &g.shards[i]
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
			if got := g.shards[0].end; got != c.ni/2 {
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

// TestReweightMovesUnclaimedWork checks the re-partition path: after a
// reweight toward type 0, type 0's home shards hold (nearly) all remaining
// work, claims stay exactly-once, and type-0 claims no longer touch
// foreign shards.
func TestReweightMovesUnclaimedWork(t *testing.T) {
	const ni = 10000
	cover(t, ni, func(mark func(lo, hi int64)) {
		ws := NewSharded(ni, []int{1, 1})
		// Consume a little from each home so the leftover is fragmented.
		for home := 0; home < 2; home++ {
			lo, hi, _, _, ok := ws.TryStealBatchFrom(home, 100, 100)
			if !ok {
				t.Fatal("warm-up steal failed")
			}
			mark(lo, hi)
		}
		before := ws.Remaining()
		ws.Reweight([]int{9, 1})
		if got := ws.Remaining(); got != before {
			t.Fatalf("Reweight changed remaining work: %d -> %d", before, got)
		}
		// Type 0 now owns 90% of the leftover.
		g := ws.gen.Load()
		var own0 int64
		for _, si := range g.byType[0] {
			own0 += g.shards[si].remaining()
		}
		if own0 != propCut(before, 9, 10) {
			t.Fatalf("type 0 owns %d of %d after 9:1 reweight", own0, before)
		}
		// Type-0 claims drain without a single foreign claim until its own
		// shards are gone.
		base := ws.ForeignClaims()
		for own0 > 0 {
			lo, hi, _, _, ok := ws.TryStealBatchFrom(0, 7, 7)
			if !ok {
				t.Fatal("home steal failed with home work left")
			}
			mark(lo, hi)
			own0 -= hi - lo
		}
		if got := ws.ForeignClaims() - base; got != 0 {
			t.Fatalf("%d foreign claims while home shards had work", got)
		}
		for {
			lo, hi, _, _, ok := ws.TryStealBatchFrom(1, 7, 7)
			if !ok {
				break
			}
			mark(lo, hi)
		}
	})
}

// TestReweightEmptyAndDegenerate exercises the edge shapes: reweighting a
// drained pool, reweighting twice, and a type ending up with zero work.
func TestReweightEmptyAndDegenerate(t *testing.T) {
	ws := NewSharded(10, []int{1, 1})
	for {
		if _, _, _, _, ok := ws.TryStealBatchFrom(0, 4, 4); !ok {
			break
		}
	}
	ws.Reweight([]int{1, 3})
	if ws.Remaining() != 0 {
		t.Fatalf("drained pool has %d remaining after reweight", ws.Remaining())
	}
	if _, _, _, _, ok := ws.TryStealBatchFrom(1, 1, 1); ok {
		t.Fatal("claim on drained reweighted pool succeeded")
	}

	ws = NewSharded(100, []int{1, 1})
	ws.Reweight([]int{0, 1}) // type 0 gets an empty shard
	ws.Reweight([]int{1, 0}) // and back
	if ws.Remaining() != 100 {
		t.Fatalf("double reweight lost work: %d remaining", ws.Remaining())
	}
	lo, hi, _, _, ok := ws.TryStealBatchFrom(1, 5, 5) // type 1 must hand off from type 0's shards
	if !ok || hi-lo != 5 {
		t.Fatalf("post-reweight handoff = [%d,%d) ok=%v", lo, hi, ok)
	}
	if bad := func() (bad bool) {
		defer func() { bad = recover() != nil }()
		ws.Reweight([]int{1, 2, 3})
		return false
	}(); !bad {
		t.Error("reweight with wrong type count did not panic")
	}
}

// raceReweight drains a two-type pool of ni iterations from six claimers
// while a single re-weighter re-cuts it continuously with alternating skew,
// and asserts exactly-once coverage — the seqlock property: a thief that
// concludes "drained" against a superseded generation must retry rather
// than retire with work still in flight. claim is claimer g's n-th request
// (see claimers: nothing appended means drained); no claimer may retire
// holding credit.
func raceReweight(t *testing.T, ni int64, claim func(ws *ShardedWorkShare, g, n int, c *Credit, dst []Range) []Range) {
	t.Helper()
	const workers = 6
	ws := NewSharded(ni, []int{1, 1})
	seen := make([]atomic.Int32, ni)
	var claimers, rw sync.WaitGroup
	stop := make(chan struct{})
	rw.Add(1)
	go func() {
		defer rw.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				ws.Reweight([]int{7, 1})
			} else {
				ws.Reweight([]int{1, 7})
			}
		}
	}()
	for g := 0; g < workers; g++ {
		claimers.Add(1)
		go func(g int) {
			defer claimers.Done()
			var c Credit
			var rs []Range
			for n := 0; ; n++ {
				rs = claim(ws, g, n, &c, rs[:0])
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
	claimers.Wait()
	close(stop)
	rw.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("iteration %d claimed %d times", i, c)
		}
	}
}

// byName picks one of the claimers.
func byName(name string) func(ws *ShardedWorkShare, home int, n int64, c *Credit, dst []Range) []Range {
	for _, cl := range claimers {
		if cl.name == name {
			return cl.claim
		}
	}
	panic("no claimer " + name)
}

// TestReweightConcurrentCoverage races repeated re-partitions against the
// strict, batch and span paths at ordinary sizes, then against all entry
// points, one per claimer, at each of the sizes that reach or exceed a shard
// (short pools, many rounds: a request that large drains a shard per call).
func TestReweightConcurrentCoverage(t *testing.T) {
	strict, batch, span := byName("strict"), byName("batch"), byName("span")
	raceReweight(t, 200000, func(ws *ShardedWorkShare, g, n int, c *Credit, dst []Range) []Range {
		switch {
		case g == 0 && n%64 == 63:
			return span(ws, g%2, 50, c, dst)
		case n%3 == 0:
			return batch(ws, g%2, 8, c, dst)
		}
		return strict(ws, g%2, 3, c, dst)
	})
	const ni = 4096
	for _, size := range claimSizes(ni / 2)[1:] {
		t.Run(fmt.Sprintf("n=%d", size), func(t *testing.T) {
			for round := 0; round < 25; round++ {
				raceReweight(t, ni, func(ws *ShardedWorkShare, g, n int, c *Credit, dst []Range) []Range {
					return claimers[(g+round)%len(claimers)].claim(ws, g%2, size, c, dst)
				})
			}
		})
	}
}
