package core

import "repro/internal/pool"

// claimState is the per-thread claim bookkeeping shared by every AID
// scheduler: the δ counter, the size of the last served chunk, and the
// thread-local stash of claimed-but-unserved ranges (the tail pieces of a
// multi-shard span, AID-static's drained residue). It is only ever touched
// by its owning thread.
type claimState struct {
	// delta counts the iterations the thread has claimed for itself (the
	// δ_i of §4.2, including any not-yet-served stash), which is
	// subtracted from its next asymmetric allotment.
	delta int64
	// lastN is the size of the chunk served by the most recent call.
	lastN int64
	// pending[head:] is the stash: ranges already claimed from the pool and
	// awaiting execution by this thread. pop advances head and rewinds both
	// once the stash empties, so the backing array is reused for the whole
	// loop and len(pending) == 0 still means "nothing stashed".
	pending []pool.Range
	head    int
	// credit is the thread-local claim balance of the batched credit path
	// (takeCredit): iterations removed from the pool in one RMW and drawn
	// down locally. Like pending, it counts in delta at claim time.
	credit pool.Credit
}

// pop takes the next stashed range, if any.
func (cs *claimState) pop() (pool.Range, bool) {
	if len(cs.pending) == 0 {
		return pool.Range{}, false
	}
	r := cs.pending[cs.head]
	if cs.head++; cs.head == len(cs.pending) {
		cs.pending, cs.head = cs.pending[:0], 0
	}
	return r, true
}

// takeCredit serves up to n iterations on the batched credit path: stash
// first, then the thread's credit (a thread-local draw, no shared RMW), then
// the pool — where one fetch-and-add claims pool.CreditBatch chunks and
// banks the surplus as new credit. Everything claimed is added to δ at claim
// time, so δ always equals the iterations this thread owns. ok=false only
// when the pool, stash and credit are all empty.
func (cs *claimState) takeCredit(ws *pool.ShardedWorkShare, home int, n int64, asg *Assign) (Assign, bool) {
	if len(cs.pending) > 0 {
		return cs.serve(asg)
	}
	lo, hi, st, ok := ws.TryStealCredit(home, n, &cs.credit)
	asg.addAccesses(st.Accesses)
	asg.Origin = int32(st.From) // a shard owner, which the pool keeps in an int32
	// One call acquires at most one credit, so the count is at most
	// pool.MaxCredit and the sum below cannot wrap.
	asg.CreditClaimed += int32(st.Claimed)
	cs.delta += st.Claimed
	if !ok {
		cs.lastN = 0
		return *asg, false
	}
	cs.lastN = hi - lo
	asg.Lo, asg.Hi = lo, hi
	return *asg, true
}

// claimSpan claims up to want iterations across shards (pool.StealSpan)
// straight into the stash and returns the freshly stashed ranges — a view
// into the stash, valid until the next pop — with the pool accesses paid.
// The caller accounts δ for the span and hands out its first piece with
// serve.
func (cs *claimState) claimSpan(ws *pool.ShardedWorkShare, home int, want int64) (fresh []pool.Range, accesses int) {
	was := len(cs.pending)
	cs.pending, accesses = ws.StealSpan(home, want, cs.pending)
	return cs.pending[was:], accesses
}

// serve hands the thread the next stashed range; ok=false means the stash
// is empty.
func (cs *claimState) serve(asg *Assign) (Assign, bool) {
	if r, ok := cs.pop(); ok {
		cs.lastN = r.N()
		asg.Lo, asg.Hi, asg.Origin = r.Lo, r.Hi, r.From
		return *asg, true
	}
	cs.lastN = 0
	return *asg, false
}

// spanN sums the iterations of a claimed span.
func spanN(rs []pool.Range) int64 {
	var n int64
	for _, r := range rs {
		n += r.N()
	}
	return n
}
