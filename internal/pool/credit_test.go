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
// int32 field; a single claimer still covers the pool front to back.
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
			if st.Claimed < 0 || st.Claimed > MaxCredit {
				t.Fatalf("chunk %d, call %d: claimed %d", chunk, call, st.Claimed)
			}
			next, claimed = hi, claimed+st.Claimed
		}
		if claimed != next+c.N() {
			t.Errorf("chunk %d: claimed %d, served %d with %d in credit", chunk, claimed, next, c.N())
		}
	}
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
