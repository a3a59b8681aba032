package pool

import (
	"fmt"
	"math"
	"testing"
)

// TestCreditSingleThreadCoverage drains a pool through the credit path with
// a single claimer and checks exactly-once coverage plus the amortization
// the credit exists for: far from the end one RMW serves CreditBatch
// chunks, so the total access count must sit well below the chunk count.
func TestCreditSingleThreadCoverage(t *testing.T) {
	const ni = 100003
	const chunk = 7
	cover(t, ni, func(mark func(lo, hi int64)) {
		ws := NewSharded(ni, []int{1, 1})
		var c Credit
		accesses := 0
		for home := 0; ; home = 1 - home {
			lo, hi, st, ok := ws.TryStealCredit(home, chunk, &c)
			accesses += st.Accesses
			if !ok {
				if !c.Empty() {
					t.Fatal("drained with a non-empty credit")
				}
				break
			}
			if hi-lo > chunk {
				t.Fatalf("served [%d,%d), more than one chunk", lo, hi)
			}
			mark(lo, hi)
		}
		// ~ni/chunk calls; strict claiming would pay ~ni/chunk RMWs. The
		// credit path must amortize by CreditBatch modulo the end-of-shard
		// taper, so half the strict count is a very loose ceiling.
		if calls := ni / chunk; accesses > calls/2 {
			t.Errorf("credit path used %d pool accesses for %d calls (no amortization)", accesses, calls)
		}
	})
}

// TestCreditTripCountsBelowBatch covers loops shorter than one credit grab
// (trip count < CreditBatch x chunk), where the taper degenerates every
// acquisition to a strict chunk: coverage must stay exactly-once and the
// drained conclusion must still arrive.
func TestCreditTripCountsBelowBatch(t *testing.T) {
	const chunk = 4
	for _, ni := range []int64{1, 3, chunk, chunk + 1, 2*chunk + 1, CreditBatch*chunk - 1} {
		ni := ni
		t.Run(fmt.Sprintf("ni=%d", ni), func(t *testing.T) {
			cover(t, ni, func(mark func(lo, hi int64)) {
				ws := NewSharded(ni, []int{1, 1})
				var c Credit
				for {
					lo, hi, _, ok := ws.TryStealCredit(0, chunk, &c)
					if !ok {
						if !c.Empty() {
							t.Fatal("drained with a non-empty credit")
						}
						return
					}
					mark(lo, hi)
				}
			})
		})
	}
}

// TestCreditMaxChunk: a chunk of 1<<30, whose batch of CreditBatch chunks
// is 2^33 iterations, and the largest chunk the grammar allows. Every
// acquisition claims at most MaxCredit iterations and every grant is at most
// one chunk and at most MaxCredit, so a CreditSteal fits core.AssignCredit's
// int32 fields; a single claimer still covers the pool front to back, and a
// credit handed back to the pool (returnCredit) is at most MaxCredit too.
func TestCreditMaxChunk(t *testing.T) {
	for _, chunk := range []int64{1 << 30, MaxCredit, MaxCredit + 1, math.MaxInt64} {
		ws := NewSharded(1<<40, []int{1, 1})
		var c Credit
		next, claimed := int64(0), int64(0)
		for call := 0; call < 7; call++ {
			lo, hi, st, ok := ws.TryStealCredit(0, chunk, &c)
			if !ok || lo != next || hi <= lo || hi-lo > min(chunk, MaxCredit) {
				t.Fatalf("chunk %d, call %d: [%d,%d) ok=%v after %d", chunk, call, lo, hi, ok, next)
			}
			if st.Claimed < 0 || st.Claimed > MaxCredit || st.Returned != 0 {
				t.Fatalf("chunk %d, call %d: claimed %d, returned %d", chunk, call, st.Claimed, st.Returned)
			}
			next, claimed = hi, claimed+st.Claimed
		}
		if claimed != next+c.N() {
			t.Errorf("chunk %d: claimed %d, served %d with %d in credit", chunk, claimed, next, c.N())
		}
		if chunk >= MaxCredit {
			continue // every acquisition was served whole
		}
		if ret, _ := ws.returnCredit(&c); ret <= 0 || ret > MaxCredit {
			t.Errorf("chunk %d: returning the credit handed back %d iterations", chunk, ret)
		}
	}
}

// TestReturnCreditDirect unit-tests the rollback CAS in isolation: success
// while the shard counter still stands at the credit's upper bound, refusal
// after an intervening claim moved the counter, and outright (RMW-free)
// refusal for an end-of-shard credit.
func TestReturnCreditDirect(t *testing.T) {
	const ni = 4096
	const chunk = 2
	ws := NewSharded(ni, []int{1})
	var c Credit

	// Acquire: one grab of CreditBatch*chunk, serving the first chunk.
	lo, hi, st, ok := ws.TryStealCredit(0, chunk, &c)
	if !ok || lo != 0 || hi != chunk {
		t.Fatalf("first credit steal = [%d,%d) ok=%v", lo, hi, ok)
	}
	if want := int64(CreditBatch*chunk) - chunk; c.N() != want {
		t.Fatalf("credit holds %d iterations, want %d", c.N(), want)
	}
	if st.Claimed != CreditBatch*chunk {
		t.Fatalf("st.Claimed = %d, want %d", st.Claimed, CreditBatch*chunk)
	}
	before := ws.Remaining()

	// Success: nothing claimed since the acquisition, the CAS rolls back.
	retN := c.N()
	returned, tried := ws.returnCredit(&c)
	if !tried || returned != retN {
		t.Fatalf("returnCredit = (%d,%v), want (%d,true)", returned, tried, retN)
	}
	if !c.Empty() {
		t.Fatal("successful return left a non-empty credit")
	}
	if got := ws.Remaining(); got != before+retN {
		t.Fatalf("Remaining = %d after return, want %d", got, before+retN)
	}

	// Failure: an intervening strict claim moved the counter, so the
	// rollback must lose and the caller keeps the credit.
	if _, _, _, ok := ws.TryStealCredit(0, chunk, &c); !ok {
		t.Fatal("re-acquisition failed")
	}
	if _, _, _, _, ok := ws.TryStealBatchFrom(0, 3, 3); !ok {
		t.Fatal("intervening strict steal failed")
	}
	held := c.N()
	if returned, tried = ws.returnCredit(&c); returned != 0 || !tried {
		t.Fatalf("returnCredit after intervening claim = (%d,%v), want (0,true)", returned, tried)
	}
	if c.N() != held {
		t.Fatal("failed return modified the credit")
	}

	// End-of-shard refusal: a credit whose upper bound touches the shard
	// end must be refused without an RMW — returning it could resurrect
	// work on a generation Reweight already concluded drained.
	eos := Credit{lo: c.s.end - chunk, hi: c.s.end, s: c.s, seq: c.seq}
	if returned, tried = ws.returnCredit(&eos); returned != 0 || tried {
		t.Fatalf("end-of-shard returnCredit = (%d,%v), want (0,false)", returned, tried)
	}
	if eos.N() != chunk {
		t.Fatal("end-of-shard refusal modified the credit")
	}

}

// TestCreditHeldAcrossReweight pins the losing side of the return race:
// Reweight CAS-drains every old-generation shard to its end, so a credit
// return attempted after the re-partition deterministically loses the CAS.
// The holder must keep serving the balance (the iterations are not in the
// new generation), try the return exactly once per re-partition rather than
// on every draw, and end with exactly-once coverage.
func TestCreditHeldAcrossReweight(t *testing.T) {
	const ni = 4096
	const chunk = 2
	cover(t, ni, func(mark func(lo, hi int64)) {
		ws := NewSharded(ni, []int{1, 1})
		var c Credit
		lo, hi, _, ok := ws.TryStealCredit(0, chunk, &c)
		if !ok {
			t.Fatal("first credit steal failed")
		}
		mark(lo, hi)
		held := c.N()
		if held == 0 {
			t.Fatal("no credit banked")
		}

		ws.Reweight([]int{3, 1})
		if got := ws.Remaining() + held + (hi - lo); got != ni {
			t.Fatalf("credit double-counted across reweight: remaining %d + held %d + served %d != %d",
				ws.Remaining(), held, hi-lo, ni)
		}

		// The next draw offers the return, loses, and serves the old credit.
		lo, hi, st, ok := ws.TryStealCredit(0, chunk, &c)
		if !ok || st.Returned != 0 {
			t.Fatalf("post-reweight draw = ok=%v returned=%d, want served from held credit", ok, st.Returned)
		}
		if st.Accesses != 1 {
			t.Fatalf("post-reweight draw paid %d accesses, want exactly the one failed return CAS", st.Accesses)
		}
		mark(lo, hi)
		if c.N() != held-(hi-lo) {
			t.Fatal("draw did not come out of the held credit")
		}

		// Subsequent draws must not re-try the doomed CAS.
		lo, hi, st, ok = ws.TryStealCredit(0, chunk, &c)
		if !ok || st.Accesses != 0 {
			t.Fatalf("second post-reweight draw paid %d accesses, want 0 (return not re-tried)", st.Accesses)
		}
		mark(lo, hi)

		// Drain everything (credit remainder + new generation; the foreign
		// fallback reaches the other type's shards) and let cover() assert
		// exactly-once.
		for {
			lo, hi, _, ok := ws.TryStealCredit(0, chunk, &c)
			if !ok {
				if !c.Empty() {
					t.Fatal("drained with a non-empty credit")
				}
				return
			}
			mark(lo, hi)
		}
	})
}

// TestReweightConcurrentCoverageCredit is the credit-path edition of the
// seqlock stress test: claimers that own thread-local credits race repeated
// re-partitions, so returns, lost return CASes, and drained conclusions all
// interleave with the generation swap. Exactly-once coverage must survive,
// and no claimer may retire holding a non-empty credit. One claimer mixes in
// span steals: its credit stays untouched in between, exercising stale-seq
// returns.
func TestReweightConcurrentCoverageCredit(t *testing.T) {
	credit, span := byName("credit"), byName("span")
	raceReweight(t, 200000, func(ws *ShardedWorkShare, g, n int, c *Credit, dst []Range) []Range {
		if g == 0 && n%64 == 63 {
			if rs := span(ws, g%2, 50, c, dst); len(rs) > 0 {
				return rs
			}
		}
		return credit(ws, g%2, int64(1+g%3), c, dst) // mix chunk sizes across claimers
	})
}

// TestCreditStealAllocs pins the zero-allocation property of the claim hot
// path: neither the strict nor the credit path may allocate, steady state
// or at acquisition. Runs only without the race detector (instrumentation
// allocates).
func TestCreditStealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ws := NewSharded(1<<30, []int{1, 1})
	var c Credit
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, _, ok := ws.TryStealCredit(0, 4, &c); !ok {
			t.Fatal("pool drained mid-measurement")
		}
	}); n != 0 {
		t.Errorf("TryStealCredit allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, _, _, _, ok := ws.TryStealBatchFrom(1, 4, 4); !ok {
			t.Fatal("pool drained mid-measurement")
		}
	}); n != 0 {
		t.Errorf("TryStealBatchFrom allocates %v per op, want 0", n)
	}
}
