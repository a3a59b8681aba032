package fair

import (
	"math"
	"testing"
)

func cands(ids ...uint64) []Candidate {
	cs := make([]Candidate, len(ids))
	for i, id := range ids {
		cs[i] = Candidate{ID: id, Weight: 1}
	}
	return cs
}

func TestWRRCyclesInAdmissionOrder(t *testing.T) {
	p := NewWeightedRoundRobin(1)
	cs := cands(3, 7, 9)
	var got []uint64
	for i := 0; i < 6; i++ {
		idx, burst := p.Pick(0, cs)
		if burst != 1 {
			t.Fatalf("burst = %d, want 1 (weight 1, quantum 1)", burst)
		}
		got = append(got, cs[idx].ID)
	}
	want := []uint64{3, 7, 9, 3, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick sequence %v, want %v", got, want)
		}
	}
}

func TestWRRPerWorkerCursorsIndependent(t *testing.T) {
	p := NewWeightedRoundRobin(1)
	cs := cands(1, 2)
	if idx, _ := p.Pick(0, cs); cs[idx].ID != 1 {
		t.Fatal("worker 0 first pick should be the oldest loop")
	}
	// Worker 5 has its own cursor: it also starts at the oldest loop.
	if idx, _ := p.Pick(5, cs); cs[idx].ID != 1 {
		t.Fatal("worker 5 first pick should be the oldest loop")
	}
	if idx, _ := p.Pick(0, cs); cs[idx].ID != 2 {
		t.Fatal("worker 0 second pick should advance")
	}
}

func TestWRRBurstScalesWithWeight(t *testing.T) {
	p := NewWeightedRoundRobin(4)
	cs := []Candidate{{ID: 1, Weight: 3}, {ID: 2, Weight: 1}}
	if idx, burst := p.Pick(0, cs); idx != 0 || burst != 12 {
		t.Fatalf("pick = %d burst %d, want loop 1 with weight 3 x quantum 4 = 12", idx, burst)
	}
	// Non-positive weights are clamped to 1.
	cs[0].Weight = 0
	p.Pick(0, cs) // loop 2's turn
	if _, burst := p.Pick(0, cs); burst != 4 {
		t.Fatalf("burst = %d, want 4 for clamped weight", burst)
	}
	// A weight whose product with the quantum overflows saturates at the
	// lone candidate's burst instead of wrapping.
	cs[0].Weight = math.MaxInt
	p.Pick(0, cs) // loop 2's turn
	if _, burst := p.Pick(0, cs); burst != unbounded {
		t.Fatalf("burst = %d, want %d for weight MaxInt", burst, unbounded)
	}
}

func TestWRRSurvivesCandidateRemoval(t *testing.T) {
	p := NewWeightedRoundRobin(1)
	p.Pick(0, cands(1, 2, 3)) // cursor at 1
	// Loop 2 completed; the next pick after 1 is 3.
	if idx, _ := p.Pick(0, cands(1, 3)); idx != 1 {
		t.Fatal("pick should skip the removed loop and take the next ID")
	}
	// Everything after the cursor completed: wrap to the oldest.
	if idx, _ := p.Pick(0, cands(1)); idx != 0 {
		t.Fatal("pick should wrap when no higher ID remains")
	}
}

func TestWRRDefaultQuantum(t *testing.T) {
	p := NewWeightedRoundRobin(0)
	if _, burst := p.Pick(0, cands(1, 2)); burst != DefaultQuantum {
		t.Fatalf("burst = %d, want DefaultQuantum %d", burst, DefaultQuantum)
	}
}

func TestFCFSHeadOfLine(t *testing.T) {
	p := NewFCFS()
	idx, burst := p.Pick(3, cands(10, 11, 12))
	if idx != 0 {
		t.Fatalf("FCFS picked index %d, want the oldest loop", idx)
	}
	if burst < 1<<20 {
		t.Fatalf("FCFS burst = %d, want effectively unbounded", burst)
	}
}

// TestLoneCandidateUnbounded: a lone candidate has nobody to share the
// worker with, so every built-in policy grants it an unbounded burst, which
// only the worker's retirement or an admission ends.
func TestLoneCandidateUnbounded(t *testing.T) {
	for _, p := range []Policy{NewWeightedRoundRobin(0), NewFCFS()} {
		for tid := 0; tid < 2; tid++ {
			cs := []Candidate{{ID: 4, Weight: 2}}
			if idx, burst := p.Pick(tid, cs); idx != 0 || burst != unbounded {
				t.Errorf("%s, worker %d: Pick = %d burst %d, want 0 burst %d", p.Name(), tid, idx, burst, unbounded)
			}
		}
	}
}

func TestWRRLonePickAdvancesCursor(t *testing.T) {
	// A lone loop's unbounded grant still moves the worker's cursor, so the
	// first Pick after a single-to-multi transition does NOT hand the worker
	// the loop it has been serving all along.
	p := NewWeightedRoundRobin(1)
	p.Pick(0, cands(1))
	if idx, _ := p.Pick(0, cands(1, 2)); cands(1, 2)[idx].ID != 2 {
		t.Error("pick over {1, 2} after a pick over {1} should advance to loop 2")
	}
	// Without the lone pick, a fresh cursor starts at the oldest loop.
	q := NewWeightedRoundRobin(1)
	if idx, _ := q.Pick(0, cands(1, 2)); cands(1, 2)[idx].ID != 1 {
		t.Fatal("fresh cursor should start at the oldest loop")
	}
}

func TestWRRRetirePurgesCursors(t *testing.T) {
	p := NewWeightedRoundRobin(1).(*weightedRoundRobin)
	p.Pick(0, cands(5))
	p.Pick(1, cands(5, 8)) // worker 1 cursor at 5 too
	p.Pick(2, cands(8))
	p.Retire(5)
	live := 0
	for _, last := range p.last {
		if last > 0 {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d cursors are set after Retire(5), want 1", live)
	}
	if p.last[2] != 8+1 {
		t.Fatal("Retire dropped a cursor for a live loop")
	}
}

func TestPolicyNames(t *testing.T) {
	if got := NewWeightedRoundRobin(0).Name(); got != "wrr" {
		t.Errorf("WRR Name() = %q", got)
	}
	if got := NewFCFS().Name(); got != "fcfs" {
		t.Errorf("FCFS Name() = %q", got)
	}
}
