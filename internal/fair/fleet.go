package fair

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// Fleet is the multi-tenant protocol both execution engines run: the set of
// runnable loops, which workers each loop has retired, the candidates a free
// worker is offered, the policy's pick, the end of a worker's grant and the
// barrier release. A loop lives in a slot the engine names (the registry
// reuses released slots; the simulator numbers slots by loop index); a Grant
// names a slot, and the engine maps it back to its own loop. Fleet is single
// threaded except for Over: the registry calls every other method under its
// control-plane lock and the simulator from its event loop, while Over may
// be called from any goroutine, as the registry's workers do once per chunk
// without the lock.
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

	// admitted counts the fleet's admissions. It sits alone on its cache
	// line: every registry worker loads it once per served chunk (Over), and
	// letting Admit's increment share a line with anything the control plane
	// writes would broadcast invalidations into every burst in the fleet.
	_        [64]byte
	admitted atomic.Uint64
	_        [56]byte
}

// Grant is a worker's lease on one runnable loop: the loop's slot, and the
// number of scheduler calls (at least 1) the worker may issue to it before
// asking again. Over tells whether it has ended; the zero Grant has.
type Grant struct {
	Slot, Burst int
	admitted    uint64 // the fleet's admission count when it was granted
}

// NewFleet returns an empty fleet of nthreads workers. policy chooses among
// the candidates; it may be nil for a fleet whose workers are never offered
// a choice, such as a fork/join team.
func NewFleet(policy Policy, nthreads int) *Fleet {
	return &Fleet{policy: policy, nthreads: nthreads}
}

// Reset empties the fleet for a run under policy, keeping its storage: no
// loop is runnable and no worker has retired from any slot. A grant made
// before it names a slot that holds no loop; its worker drops it.
func (f *Fleet) Reset(policy Policy) {
	f.policy = policy
	f.open = f.open[:0]
	clear(f.nretired)
	clear(f.retired)
}

// Admit makes the loop id of the given weight runnable in slot, which must
// not hold a runnable loop. The slot starts with no worker retired, and
// every grant made before the admission is over.
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
	f.admitted.Add(1)
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
// leases it the policy's choice for the policy's burst. A broken policy is
// clamped: an index out of range selects the first candidate, a burst below
// 1 is 1. A fleet without a policy, such as a team's, leases the first
// candidate for an unbounded burst. ok is false when there is no candidate.
func (f *Fleet) Grant(tid int) (g Grant, ok bool) {
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
		return Grant{}, false
	}
	idx, burst := 0, unbounded
	if f.policy != nil {
		if idx, burst = f.policy.Pick(tid, cands); idx < 0 || idx >= len(cands) {
			idx = 0
		}
	}
	return Grant{Slot: candSlot[idx], Burst: max(burst, 1), admitted: f.admitted.Load()}, true
}

// Over reports whether grant g has ended after its worker issued served
// scheduler calls under it: the burst is used up, or a loop has been admitted
// since the grant, which a lone loop's unbounded burst must yield to. It is
// the one test of a grant's end in either engine, and the one method that
// needs no serialization.
func (f *Fleet) Over(g Grant, served int) bool {
	return served >= g.Burst || f.admitted.Load() != g.admitted
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
