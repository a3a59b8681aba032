package pool

import "testing"

// clusterDist is a 4-type topology shaped like a dual-package big.LITTLE:
// types 0/2 share package 0, types 1/3 share package 1, so the nearest
// foreign victim of type 0 is type 2 and vice versa.
var clusterDist = [][]int{
	{0, 2, 1, 2},
	{2, 0, 2, 1},
	{1, 2, 0, 2},
	{2, 1, 2, 0},
}

func newTopo4(ni int64) *ShardedWorkShare {
	ws := NewSharded(ni, []int{1, 1, 1, 1})
	ws.SetTopology(clusterDist)
	return ws
}

// TestNearestVictimSteal pins the victim-selection rule: a fallen-over
// claim steals from the topologically nearest tier even when a farther
// shard is richer, and only moves outward when the near tier drains.
func TestNearestVictimSteal(t *testing.T) {
	ws := newTopo4(400) // shards of 100 per type
	// Make the near victim (type 2) poorer than the far ones.
	if _, _, _, _, ok := ws.TryStealBatchFrom(2, 30, 30); !ok {
		t.Fatal("priming claim failed")
	}
	// Drain type 0's home shard.
	if lo, hi, _, _, ok := ws.TryStealBatchFrom(0, 100, 100); !ok || lo != 0 || hi != 100 {
		t.Fatalf("home drain got [%d,%d) ok=%v", lo, hi, ok)
	}
	// First foreign claim must come from type 2 (distance 1, 70 left)
	// although types 1 and 3 hold 100 each at distance 2.
	_, _, from, _, ok := ws.TryStealBatchFrom(0, 10, 40)
	if !ok || from != 2 {
		t.Fatalf("first foreign claim from type %d (ok=%v), want nearest type 2", from, ok)
	}
	// Exhaust the near tier, then the claim must move to distance 2.
	for {
		_, _, from, _, ok = ws.TryStealBatchFrom(0, 10, 40)
		if !ok {
			t.Fatal("pool drained before the far tier was reached")
		}
		if from != 2 {
			break
		}
	}
	if clusterDist[0][from] != 2 {
		t.Fatalf("after near tier drained, claim came from type %d (distance %d)", from, clusterDist[0][from])
	}
	// Without a topology the same setup steals from the richest shard.
	ws = NewSharded(400, []int{1, 1, 1, 1})
	ws.TryStealBatchFrom(2, 30, 30)
	ws.TryStealBatchFrom(1, 60, 60)
	ws.TryStealBatchFrom(0, 100, 100)
	if _, _, from, _, ok := ws.TryStealBatchFrom(0, 10, 40); !ok || from != 3 {
		t.Fatalf("richest-only fallback claimed from type %d, want 3", from)
	}
}

// TestDrainAllTierOrder pins DrainAll's foreign walk: home shard first,
// then foreign shards tier by tier.
func TestDrainAllTierOrder(t *testing.T) {
	ws := newTopo4(400)
	rs, _ := ws.DrainAll(0)
	var got []int32
	for _, r := range rs {
		got = append(got, r.From)
	}
	want := []int32{0, 2, 1, 3} // home, distance 1, then distance 2 in index order
	if len(got) != len(want) {
		t.Fatalf("DrainAll returned %d ranges: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DrainAll provenance order %v, want %v", got, want)
		}
	}
}

// TestStealSpanProvenance pins that span claims are provenance-tagged and
// overflow into the nearest foreign shard.
func TestStealSpanProvenance(t *testing.T) {
	ws := newTopo4(400)
	rs, _ := ws.StealSpan(0, 150, nil)
	if len(rs) != 2 || rs[0].From != 0 || rs[1].From != 2 {
		t.Fatalf("StealSpan ranges %+v, want home then nearest foreign", rs)
	}
	if rs[0].N()+rs[1].N() != 150 {
		t.Fatalf("StealSpan claimed %d iterations, want 150", rs[0].N()+rs[1].N())
	}
}

// TestCreditProvenance pins CreditSteal.From across all three serve paths:
// home acquisition, thread-local credit draws, and foreign acquisition.
func TestCreditProvenance(t *testing.T) {
	ws := newTopo4(4000) // shards of 1000, big enough for real credit batches
	var c Credit
	_, _, st, ok := ws.TryStealCredit(0, 10, &c)
	if !ok || st.From != 0 {
		t.Fatalf("home credit claim From=%d ok=%v", st.From, ok)
	}
	// Drain the rest of the home shard behind the credit's back (the first
	// credit acquisition consumed [0,31): a 31-iteration clamped batch).
	if lo, hi, _, _, ok := ws.TryStealBatchFrom(0, 969, 969); !ok || hi-lo != 969 {
		t.Fatalf("home drain got [%d,%d) ok=%v", lo, hi, ok)
	}
	// Draws against the surviving credit still report the home provenance...
	sawDraw := false
	for !c.Empty() {
		if _, _, st, ok = ws.TryStealCredit(0, 10, &c); !ok || st.From != 0 {
			t.Fatalf("credit draw From=%d ok=%v", st.From, ok)
		}
		sawDraw = true
	}
	if !sawDraw {
		t.Fatal("credit was empty; test exercised no draw path")
	}
	// ...and the next acquisition is foreign, from the nearest tier.
	if _, _, st, ok = ws.TryStealCredit(0, 10, &c); !ok || st.From != 2 {
		t.Fatalf("foreign credit claim From=%d ok=%v, want nearest type 2", st.From, ok)
	}
}

func TestSetTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetTopology accepted a matrix with too few types")
		}
	}()
	NewSharded(100, []int{1, 1, 1}).SetTopology([][]int{{0}})
}
