package fair

import (
	"slices"
	"testing"
	"unsafe"
)

// recorder is a policy that answers with fixed values and records what it
// was offered and which loops it was told to forget.
type recorder struct {
	idx, burst int
	offered    [][]Candidate
	retired    []uint64
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Pick(_ int, cands []Candidate) (int, int) {
	r.offered = append(r.offered, slices.Clone(cands))
	return r.idx, r.burst
}

func (r *recorder) Retire(id uint64) { r.retired = append(r.retired, id) }

// offeredIDs returns the candidate IDs of the last Pick.
func (r *recorder) offeredIDs() []uint64 {
	var ids []uint64
	for _, c := range r.offered[len(r.offered)-1] {
		ids = append(ids, c.ID)
	}
	return ids
}

func TestFleetCandidatesExcludeRetired(t *testing.T) {
	pol := &recorder{burst: 1}
	f := NewFleet(pol, 2)
	// Admitted out of ID order: candidates come by ascending ID.
	f.Admit(2, 30, 1)
	f.Admit(0, 10, 0)
	f.Admit(1, 20, 4)
	if _, ok := f.Grant(0); !ok {
		t.Fatal("Grant found no candidate among three runnable loops")
	}
	want := []Candidate{{ID: 10, Weight: 1}, {ID: 20, Weight: 4}, {ID: 30, Weight: 1}}
	if got := pol.offered[0]; !slices.Equal(got, want) {
		t.Fatalf("offered %+v, want %+v", got, want)
	}
	f.Retire(1, 0)
	f.Grant(0)
	if got := pol.offeredIDs(); !slices.Equal(got, []uint64{10, 30}) {
		t.Errorf("worker 0 offered %v after retiring from loop 20, want [10 30]", got)
	}
	f.Grant(1)
	if got := pol.offeredIDs(); !slices.Equal(got, []uint64{10, 20, 30}) {
		t.Errorf("worker 1 offered %v, want all three: only worker 0 retired", got)
	}
	if !f.Retired(1, 0) || f.Retired(1, 1) || f.Retired(7, 0) {
		t.Error("Retired disagrees with the retirements made")
	}
	f.Retire(0, 0)
	f.Retire(2, 0)
	if _, ok := f.Grant(0); ok {
		t.Error("Grant found a candidate for a worker retired from every loop")
	}
}

func TestFleetReleaseAtLastDistinctRetirement(t *testing.T) {
	pol := &recorder{burst: 1}
	f := NewFleet(pol, 3)
	f.Admit(0, 5, 1)
	f.Admit(1, 6, 1)
	for i, tid := range []int{2, 2, 0, 0, 2} {
		if f.Retire(0, tid) {
			t.Fatalf("retirement %d (worker %d) released after two distinct workers", i, tid)
		}
	}
	if f.Len() != 2 || len(pol.retired) != 0 {
		t.Fatalf("before the last retirement: %d runnable, Retire calls %v", f.Len(), pol.retired)
	}
	if !f.Retire(0, 1) {
		t.Fatal("the third distinct retirement of three workers did not release")
	}
	if f.Retire(0, 1) || f.Retire(0, 2) {
		t.Error("a retirement after the release released again")
	}
	if f.Len() != 1 || !slices.Equal(pol.retired, []uint64{5}) {
		t.Errorf("after the release: %d runnable, Retire calls %v, want 1 and [5]", f.Len(), pol.retired)
	}
	f.Grant(1)
	if got := pol.offeredIDs(); !slices.Equal(got, []uint64{6}) {
		t.Errorf("offered %v after loop 5 released, want [6]", got)
	}
	for tid := 0; tid < 3; tid++ {
		f.Retire(1, tid)
	}
	if f.Len() != 0 || !slices.Equal(pol.retired, []uint64{5, 6}) {
		t.Errorf("Retire calls %v, want one per released loop: [5 6]", pol.retired)
	}
}

func TestFleetClampsBrokenPolicy(t *testing.T) {
	pol := &recorder{}
	f := NewFleet(pol, 1)
	f.Admit(3, 1, 1)
	f.Admit(4, 2, 1)
	for _, c := range []struct{ idx, burst int }{{-1, 0}, {2, -5}, {99, 1 << 40}} {
		pol.idx, pol.burst = c.idx, c.burst
		g, ok := f.Grant(0)
		if !ok || g.Slot != 3 || g.Burst != max(c.burst, 1) {
			t.Errorf("policy answering (%d, %d): Grant = slot %d burst %d ok %v, want slot 3 burst %d",
				c.idx, c.burst, g.Slot, g.Burst, ok, max(c.burst, 1))
		}
	}
	pol.idx, pol.burst = 1, 7
	if g, _ := f.Grant(0); g.Slot != 4 || g.Burst != 7 {
		t.Errorf("Grant = slot %d burst %d, want the policy's slot 4 burst 7", g.Slot, g.Burst)
	}
}

func TestFleetReusedSlotStartsClean(t *testing.T) {
	pol := &recorder{burst: 1}
	f := NewFleet(pol, 2)
	f.Admit(0, 1, 3)
	f.Retire(0, 1)
	f.Retire(0, 0)
	f.Admit(0, 9, 1)
	if f.Retired(0, 0) || f.Retired(0, 1) {
		t.Fatal("a reused slot kept the previous loop's retirements")
	}
	f.Grant(1)
	if got := pol.offered[0]; len(got) != 1 || got[0].ID != 9 || got[0].Weight != 1 {
		t.Fatalf("offered %+v, want the new loop 9 of weight 1", got)
	}
	if f.Retire(0, 1) || !f.Retire(0, 0) {
		t.Error("a reused slot did not release at its own second retirement")
	}
	// Reset forgets every loop and retirement, whatever the slot.
	f.Admit(1, 4, 1)
	f.Retire(1, 0)
	f.Reset(pol)
	if f.Len() != 0 || f.Retired(1, 0) {
		t.Error("Reset kept a runnable loop or a retirement")
	}
}

// TestFleetAdmittedLayout is the false-sharing guard for the admission
// count, which every registry worker loads once per served chunk (Over): it
// must sit clear of the fields before it, which the control plane writes,
// and nothing may follow it on its cache line.
func TestFleetAdmittedLayout(t *testing.T) {
	var f Fleet
	off := unsafe.Offsetof(f.admitted)
	if gap := off - (unsafe.Offsetof(f.candSlot) + unsafe.Sizeof(f.candSlot)); gap < 64 {
		t.Errorf("admitted is %d bytes after the preceding field, want >= 64 (own cache line)", gap)
	}
	if gap := unsafe.Sizeof(f) - (off + unsafe.Sizeof(f.admitted)); gap < 56 {
		t.Errorf("%d bytes follow admitted, want >= 56 (Admit's increment must share its line with nothing)", gap)
	}
}
