package fair

import (
	"cmp"
	"slices"
)

// Fleet is the multi-tenant protocol both execution engines run: the set of
// runnable loops, which workers each loop has retired, the candidates a free
// worker is offered, the policy's pick and the barrier release. A loop lives
// in a slot the engine names (the registry reuses released slots; the
// simulator numbers slots by loop index); Grant answers with a slot, and the
// engine maps it back to its own loop. Fleet is single threaded: the registry
// calls it under its control-plane lock, the simulator from its event loop.
type Fleet struct {
	policy   Policy
	nthreads int

	id       []uint64 // per slot: the loop's Candidate.ID
	weight   []int    // per slot: the loop's Candidate.Weight, >= 1
	nretired []int    // per slot: distinct workers retired
	retired  []bool   // [slot*nthreads+tid]: worker tid has retired from the slot's loop
	open     []int    // the runnable slots, by ascending ID

	cands    []Candidate // Grant's scratch, kept at its high-water size
	candSlot []int       // cands[i]'s slot
}

// NewFleet returns an empty fleet of nthreads workers. policy chooses among
// the candidates; it may be nil for a fleet whose workers are never offered
// a choice, such as a fork/join team.
func NewFleet(policy Policy, nthreads int) *Fleet {
	return &Fleet{policy: policy, nthreads: nthreads}
}

// Reset empties the fleet for a run under policy, keeping its storage: no
// loop is runnable and no worker has retired from any slot.
func (f *Fleet) Reset(policy Policy) {
	f.policy = policy
	f.open = f.open[:0]
	clear(f.nretired)
	clear(f.retired)
}

// Admit makes the loop id of the given weight runnable in slot, which must
// not hold a runnable loop. The slot starts with no worker retired.
func (f *Fleet) Admit(slot int, id uint64, weight int) {
	for len(f.id) <= slot {
		f.id = append(f.id, 0)
		f.weight = append(f.weight, 0)
		f.nretired = append(f.nretired, 0)
		f.retired = append(f.retired, make([]bool, f.nthreads)...)
	}
	f.id[slot], f.weight[slot], f.nretired[slot] = id, max(weight, 1), 0
	clear(f.retired[slot*f.nthreads : (slot+1)*f.nthreads])
	at, _ := slices.BinarySearchFunc(f.open, id, f.byID)
	f.open = slices.Insert(f.open, at, slot)
}

func (f *Fleet) byID(slot int, id uint64) int { return cmp.Compare(f.id[slot], id) }

// Len returns the number of runnable loops: admitted, barrier not released.
func (f *Fleet) Len() int { return len(f.open) }

// Retired reports whether worker tid has retired from the loop in slot. A slot
// no loop has been admitted to since Reset has no retired worker.
func (f *Fleet) Retired(slot, tid int) bool {
	i := slot*f.nthreads + tid
	return i < len(f.retired) && f.retired[i]
}

// Grant offers worker tid every runnable loop it has not retired from and
// returns the slot of the policy's choice with the number of scheduler calls
// to issue to it before picking again. A broken policy is clamped: an index
// out of range selects the first candidate, a burst below 1 is 1. ok is false
// when there is no candidate.
func (f *Fleet) Grant(tid int) (slot, burst int, ok bool) {
	cands, candSlot := f.cands[:0], f.candSlot[:0]
	for _, s := range f.open {
		if f.retired[s*f.nthreads+tid] {
			continue
		}
		cands = append(cands, Candidate{ID: f.id[s], Weight: f.weight[s]})
		candSlot = append(candSlot, s)
	}
	f.cands, f.candSlot = cands, candSlot
	if len(cands) == 0 {
		return 0, 0, false
	}
	idx, burst := f.policy.Pick(tid, cands)
	if idx < 0 || idx >= len(cands) {
		idx = 0
	}
	return candSlot[idx], max(burst, 1), true
}

// Retire records that worker tid has no more work in the loop in slot; a
// repeated retirement is a no-op. It reports whether this call released the
// loop's barrier, which happens at the nthreads-th distinct retirement: the
// loop stops being runnable and a Retirer policy forgets it.
func (f *Fleet) Retire(slot, tid int) (released bool) {
	i := slot*f.nthreads + tid
	if f.retired[i] {
		return false
	}
	f.retired[i] = true
	if f.nretired[slot]++; f.nretired[slot] < f.nthreads {
		return false
	}
	at, _ := slices.BinarySearchFunc(f.open, f.id[slot], f.byID)
	f.open = slices.Delete(f.open, at, at+1)
	if rp, isRet := f.policy.(Retirer); isRet {
		rp.Retire(f.id[slot])
	}
	return true
}
