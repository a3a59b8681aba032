package trace

import (
	"reflect"
	"slices"
	"testing"
)

func grant(seq, t int64, tid, loop int32, lo, hi, execNs int64, pool int16) ChunkEvent {
	return ChunkEvent{Seq: seq, TimeNs: t, Tid: tid, Loop: loop, Lo: lo, Hi: hi,
		ExecNs: execNs, Cost: float64(execNs), PoolAccesses: pool}
}

func retire(seq, t int64, tid, loop int32) ChunkEvent {
	return ChunkEvent{Seq: seq, TimeNs: t, Tid: tid, Loop: loop, Retire: true, PoolAccesses: 1}
}

// TestCompactMergesAdjacentSameThread: contiguous grants of one worker
// collapse even when another worker's events interleave, and the merged
// event sums the additive fields while keeping the first grant's stamp.
func TestCompactMergesAdjacentSameThread(t *testing.T) {
	evs := []ChunkEvent{
		grant(0, 100, 0, 0, 0, 4, 50, 1),
		grant(1, 110, 1, 0, 100, 104, 60, 1), // other thread interleaves
		grant(2, 160, 0, 0, 4, 8, 55, 1),     // contiguous with seq 0
		grant(3, 170, 1, 0, 104, 108, 65, 1), // contiguous with seq 1
		grant(4, 220, 0, 0, 8, 12, 52, 1),    // extends the merged run again
	}
	got := CompactEvents(evs)
	want := []ChunkEvent{
		grant(0, 100, 0, 0, 0, 12, 157, 3),
		grant(1, 110, 1, 0, 100, 108, 125, 2),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted = %+v\nwant %+v", got, want)
	}
}

// TestCompactRespectsBoundaries: non-contiguous ranges, different loops and
// retirements all break a merge run.
func TestCompactRespectsBoundaries(t *testing.T) {
	evs := []ChunkEvent{
		grant(0, 100, 0, 0, 0, 4, 50, 1),
		grant(1, 150, 0, 0, 8, 12, 50, 1),  // gap: a steal landed in between
		grant(2, 200, 0, 1, 12, 16, 50, 1), // different loop
		retire(3, 250, 0, 1),
		grant(4, 300, 0, 1, 16, 20, 50, 1), // after a retire: no merge
	}
	got := CompactEvents(evs)
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("boundary-separated events were merged: %+v", got)
	}
	// Totals must be preserved by compaction whatever merges happen.
	sum := func(evs []ChunkEvent) (iters int64, pool int) {
		for _, ev := range evs {
			iters += ev.Hi - ev.Lo
			pool += int(ev.PoolAccesses)
		}
		return
	}
	wantIters, wantPool := sum(evs)
	gotIters, gotPool := sum(got)
	if gotIters != wantIters || gotPool != wantPool {
		t.Fatalf("compaction changed totals: iters %d->%d pool %d->%d", wantIters, gotIters, wantPool, gotPool)
	}
}

func TestCompactEmpty(t *testing.T) {
	if got := CompactEvents(nil); got != nil {
		t.Fatalf("CompactEvents(nil) = %v", got)
	}
}

// TestTrimToBudget pins head/tail retention: the first budget/2 events, the
// last budget-budget/2, middle dropped.
func TestTrimToBudget(t *testing.T) {
	evs := make([]ChunkEvent, 10)
	for i := range evs {
		evs[i] = grant(int64(i), int64(100*i), 0, 0, int64(i), int64(i+1), 1, 1)
	}
	for _, c := range []struct {
		budget int
		want   []int64
	}{
		{4, []int64{0, 1, 8, 9}},
		{5, []int64{0, 1, 7, 8, 9}},
	} {
		var seqs []int64
		for _, ev := range TrimToBudget(evs, c.budget) {
			seqs = append(seqs, ev.Seq)
		}
		if !slices.Equal(seqs, c.want) {
			t.Fatalf("budget %d kept seqs %v, want %v", c.budget, seqs, c.want)
		}
	}
	// Under budget: untouched (same backing array, no copy).
	if got := TrimToBudget(evs, 20); len(got) != len(evs) {
		t.Fatalf("under-budget trim dropped events: %d of %d", len(got), len(evs))
	}
	// Unbounded budget.
	if got := TrimToBudget(evs, 0); len(got) != len(evs) {
		t.Fatalf("budget 0 must mean unbounded, got %d events", len(got))
	}
}
