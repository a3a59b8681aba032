package fair

import "testing"

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
// only the worker's retirement or an admission ends. SF-aware does so whatever
// the loop's SF table, including the zero table that would otherwise pass its
// steering test (0 >= spread x 0).
func TestLoneCandidateUnbounded(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Policy
		sf   []float64
	}{
		{"wrr", NewWeightedRoundRobin(0), nil},
		{"fcfs", NewFCFS(), nil},
		{"sf-aware/nil", NewSFAware(0, 0), nil},
		{"sf-aware/equal", NewSFAware(0, 0), []float64{1, 1}},
		{"sf-aware/steering", NewSFAware(0, 0), []float64{3, 1}},
		{"sf-aware/zero", NewSFAware(0, 0), []float64{0, 0}},
	} {
		for _, ct := range []int{0, 1} {
			cs := []Candidate{{ID: 4, Weight: 2, CoreType: ct, SF: c.sf}}
			if idx, burst := c.p.Pick(ct, cs); idx != 0 || burst != unbounded {
				t.Errorf("%s, core type %d: Pick = %d burst %d, want 0 burst %d", c.name, ct, idx, burst, unbounded)
			}
		}
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
