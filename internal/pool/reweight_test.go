package pool

import (
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
			lo, hi, _, ok := ws.TrySteal(home, 100)
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
			lo, hi, _, ok := ws.TrySteal(0, 7)
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
			lo, hi, _, ok := ws.TrySteal(1, 7)
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
		if _, _, _, ok := ws.TrySteal(0, 4); !ok {
			break
		}
	}
	ws.Reweight([]int{1, 3})
	if ws.Remaining() != 0 {
		t.Fatalf("drained pool has %d remaining after reweight", ws.Remaining())
	}
	if _, _, _, ok := ws.TrySteal(1, 1); ok {
		t.Fatal("claim on drained reweighted pool succeeded")
	}

	ws = NewSharded(100, []int{1, 1})
	ws.Reweight([]int{0, 1}) // type 0 gets an empty shard
	ws.Reweight([]int{1, 0}) // and back
	if ws.Remaining() != 100 {
		t.Fatalf("double reweight lost work: %d remaining", ws.Remaining())
	}
	lo, hi, _, ok := ws.TrySteal(1, 5) // type 1 must hand off from type 0's shards
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

// TestReweightConcurrentCoverage races repeated re-partitions against all
// claim paths and asserts exactly-once coverage — the seqlock property: a
// thief that concludes "drained" against a superseded generation must
// retry rather than retire with work still in flight.
func TestReweightConcurrentCoverage(t *testing.T) {
	const ni = 200000
	const workers = 6
	ws := NewSharded(ni, []int{1, 1})
	seen := make([]atomic.Int32, ni)
	var claimers, rw sync.WaitGroup
	stop := make(chan struct{})
	rw.Add(1)
	go func() { // the single re-weighter, alternating skew
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
					lo, hi, _, ok = ws.TryStealBatch(home, 2, 8)
				default:
					lo, hi, _, ok = ws.TrySteal(home, 3)
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
	claimers.Wait()
	close(stop)
	rw.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("iteration %d claimed %d times", i, c)
		}
	}
}
