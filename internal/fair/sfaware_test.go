package fair

import "testing"

// sfCand builds a candidate with a two-type SF table (big, small) as seen
// by a worker on core type ct.
func sfCand(id uint64, ct int, sf ...float64) Candidate {
	return Candidate{ID: id, Weight: 1, CoreType: ct, SF: sf}
}

func TestWRRLonePickAdvancesCursor(t *testing.T) {
	// A lone loop's unbounded grant still moves the worker's cursor, so the
	// first Pick after a single-to-multi transition does NOT hand the worker
	// the loop it has been serving all along.
	for _, p := range []Policy{NewWeightedRoundRobin(1), NewSFAware(1, 0)} {
		p.Pick(0, cands(1))
		if idx, _ := p.Pick(0, cands(1, 2)); cands(1, 2)[idx].ID != 2 {
			t.Errorf("%s: pick over {1, 2} after a pick over {1} should advance to loop 2", p.Name())
		}
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
	if len(p.last) != 1 {
		t.Fatalf("cursor map holds %d entries after Retire(5), want 1", len(p.last))
	}
	if p.last[2] != 8 {
		t.Fatal("Retire dropped a cursor for a live loop")
	}
}

func TestSFAwareFallsBackUntilStabilized(t *testing.T) {
	p := NewSFAware(1, 0)
	// Loop 2's estimate is not published yet: plain WRR over all, in
	// admission order.
	cs := []Candidate{sfCand(1, 0, 3.0, 1.0), {ID: 2, Weight: 1, CoreType: 0}}
	var got []uint64
	for i := 0; i < 4; i++ {
		idx, _ := p.Pick(0, cs)
		got = append(got, cs[idx].ID)
	}
	want := []uint64{1, 2, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pre-stabilization picks %v, want %v", got, want)
		}
	}
}

func TestSFAwareFallsBackOnNarrowSpread(t *testing.T) {
	p := NewSFAware(1, 1.5)
	// Spread 1.2 < 1.5: the loops speed up alike, so the big-core worker
	// still serves both.
	cs := []Candidate{sfCand(1, 0, 1.2, 1.0), sfCand(2, 0, 1.0, 1.0)}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		idx, _ := p.Pick(0, cs)
		seen[cs[idx].ID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("narrow spread should round-robin both loops, served %v", seen)
	}
}

func TestSFAwareSteersByCoreType(t *testing.T) {
	p := NewSFAware(1, 0)
	mk := func(ct int) []Candidate {
		return []Candidate{
			sfCand(1, ct, 4.0, 1.0), // high SF: wants big cores
			sfCand(2, ct, 1.05, 1.0),
			sfCand(3, ct, 3.8, 1.0),
		}
	}
	// A big-core worker (type 0) only ever serves the high-SF loops.
	for i := 0; i < 6; i++ {
		idx, _ := p.Pick(0, mk(0))
		if id := mk(0)[idx].ID; id == 2 {
			t.Fatal("big-core worker was handed the SF~1 loop")
		}
	}
	// A small-core worker (type 1) only ever serves the SF~1 loop.
	for i := 0; i < 4; i++ {
		idx, _ := p.Pick(1, mk(1))
		if id := mk(1)[idx].ID; id != 2 {
			t.Fatalf("small-core worker was handed high-SF loop %d", id)
		}
	}
	// Burst semantics carry over from WRR: weight x quantum.
	q := NewSFAware(4, 0)
	cs := mk(0)
	cs[0].Weight = 3
	idx, burst := q.Pick(0, cs)
	if cs[idx].ID != 1 || burst != 12 {
		t.Fatalf("pick = loop %d burst %d, want loop 1 burst 12", cs[idx].ID, burst)
	}
}

// TestSFAwareSteeredLoneClassKeepsQuantum: a steered class of one loop is not
// a lone candidate. The other loop is still runnable, so the grant is
// weight x quantum and the worker comes back to the policy, not unbounded.
func TestSFAwareSteeredLoneClassKeepsQuantum(t *testing.T) {
	p := NewSFAware(4, 0)
	for ct, want := range []uint64{1, 2} {
		cs := []Candidate{sfCand(1, ct, 4.0, 1.0), sfCand(2, ct, 1.0, 1.0)}
		cs[want-1].Weight = 2
		idx, burst := p.Pick(ct, cs)
		if cs[idx].ID != want || burst != 8 {
			t.Errorf("core type %d: pick = loop %d burst %d, want loop %d burst 2 x 4 = 8", ct, cs[idx].ID, burst, want)
		}
	}
}

func TestSFAwareRotatesWithinClass(t *testing.T) {
	p := NewSFAware(1, 0)
	cs := []Candidate{
		sfCand(1, 0, 4.0, 1.0),
		sfCand(2, 0, 1.0, 1.0),
		sfCand(3, 0, 3.5, 1.0),
	}
	var got []uint64
	for i := 0; i < 4; i++ {
		idx, _ := p.Pick(0, cs)
		got = append(got, cs[idx].ID)
	}
	want := []uint64{1, 3, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("big-core rotation %v, want %v", got, want)
		}
	}
}

func TestSFAwareMiddleTypeServesAll(t *testing.T) {
	// On a three-type platform the middle type has no steering preference.
	p := NewSFAware(1, 0)
	cs := []Candidate{
		sfCand(1, 1, 4.0, 2.0, 1.0),
		sfCand(2, 1, 1.0, 1.0, 1.0),
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		idx, _ := p.Pick(0, cs)
		seen[cs[idx].ID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("middle-type worker should serve all loops, served %v", seen)
	}
}

func TestSFAwareName(t *testing.T) {
	if got := NewSFAware(0, 0).Name(); got != "sf-aware" {
		t.Errorf("Name() = %q", got)
	}
	// The optional hook must be wired (Fleet type-asserts it).
	var p Policy = NewSFAware(0, 0)
	if _, ok := p.(Retirer); !ok {
		t.Error("SFAware does not implement Retirer")
	}
}
