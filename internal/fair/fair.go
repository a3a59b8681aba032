// Package fair implements the loop-fairness policies of the multi-loop
// executor. When several parallel loops (typically loop instances from
// different requests) are runnable on one worker fleet, a policy decides
// which loop a free worker serves next and for how many consecutive
// scheduler calls (the burst). The policies are engine agnostic, and so is
// the machine around them: the real-goroutine registry (internal/rt) and the
// discrete-event simulator (internal/sim) drive the same Fleet over the same
// policies, so fairness behaviour validated in virtual time carries over to
// real execution. Every grant asks Pick, a lone candidate's too; the built-in
// policies give a lone candidate an unbounded burst, which an admission ends
// in both engines: Fleet.Over, the one test of a grant's end, is true from
// the next admission on.
//
// Fairness here is deliberately chunk-granular: a worker is never preempted
// mid-chunk, matching the paper's model where the runtime system is only
// entered between chunks. A loop's share of the fleet is therefore
// proportional to its weight only in scheduler-call terms; schedulers that
// hand out very large assignments (AID-static's one-shot allotment) make
// the share approximate, exactly as a non-preemptive runtime would.
//
// A policy sees a loop's ID and weight and nothing else: no engine reads a
// loop's scheduler to choose between loops. The asymmetry the paper's
// schedulers estimate online (the speedup factor) divides one loop's
// iterations between core types inside that loop's scheduler.
package fair

// Candidate describes one runnable loop to a policy. Fleet presents the
// candidates by ascending ID, but a policy must not rely on slice order:
// policies that care about age order by ID, which the registry assigns in
// admission order (the simulator's IDs are loop indices).
type Candidate struct {
	// ID is the loop's admission-ordered identifier, unique within a fleet.
	ID uint64
	// Weight is the loop's relative fleet share (>= 1).
	Weight int
}

// Policy selects the next loop for a free worker; the engines reach it only
// through Fleet. Implementations need not be safe for concurrent use: both
// execution engines drive their Fleet under their own serialization (the
// registry's control-plane lock, the simulator's event loop), and a policy
// instance must not be shared between fleets.
type Policy interface {
	// Pick returns the index into cands of the loop that worker tid should
	// serve next, plus the number of consecutive scheduler calls (burst >=
	// 1) to issue to that loop before re-picking. cands is never empty.
	// Fleet asks on every grant, a lone candidate included; the built-in
	// policies grant a lone candidate an unbounded burst.
	Pick(tid int, cands []Candidate) (idx, burst int)
	// Name identifies the policy in reports.
	Name() string
}

// Retirer is an optional Policy extension: Fleet calls Retire when a loop
// leaves the runnable set, letting stateful policies drop per-worker state
// that references it.
type Retirer interface {
	// Retire drops any internal state referencing loop id.
	Retire(id uint64)
}

// DefaultQuantum is the number of scheduler calls a weight-1 loop receives
// per weighted-round-robin turn. A quantum above 1 amortizes the per-pick
// control-plane cost over several lock-free scheduler calls without
// changing the relative shares (burst = weight x quantum).
const DefaultQuantum = 8

// unbounded is the burst of a grant that lasts until the worker retires from
// the loop or an admission ends every grant: FCFS's, and every built-in
// policy's for a lone candidate, which has nothing to share the worker with.
// It is also the most a weighted burst can be.
const unbounded = 1 << 30

// weightedRoundRobin cycles each worker independently through the runnable
// loops in admission order, serving weight x quantum scheduler calls per
// turn. Per-worker cursors keep the policy deterministic for a fixed
// sequence of Pick calls, which the virtual-time fairness tests rely on.
type weightedRoundRobin struct {
	quantum int
	// last[tid] is 1 + the ID worker tid served on its previous turn while
	// that loop is live, 0 otherwise; it grows to the highest tid picked for.
	last []uint64
}

// NewWeightedRoundRobin returns the default fairness policy: weighted
// round-robin over the runnable loops with the given per-turn quantum
// (0 selects DefaultQuantum). A loop of weight w receives w x quantum
// consecutive scheduler calls per turn, so relative weights set relative
// fleet shares.
func NewWeightedRoundRobin(quantum int) Policy {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &weightedRoundRobin{quantum: quantum}
}

// Name implements Policy.
func (w *weightedRoundRobin) Name() string { return "wrr" }

// Pick implements Policy: the lowest candidate ID above the one this
// worker served last, wrapping to the oldest (lowest-ID) loop. Selection
// is by ID, never by slice position, so it is independent of the order the
// engine presents candidates in. The burst is weight x quantum, saturated at
// unbounded so that no weight wraps it; a lone candidate's is unbounded.
func (w *weightedRoundRobin) Pick(tid int, cands []Candidate) (int, int) {
	if tid >= len(w.last) {
		w.last = append(w.last, make([]uint64, tid+1-len(w.last))...)
	}
	last := w.last[tid]
	idx, oldest := -1, 0
	for i, c := range cands {
		if c.ID < cands[oldest].ID {
			oldest = i
		}
		if last > 0 && c.ID >= last && (idx < 0 || c.ID < cands[idx].ID) {
			idx = i
		}
	}
	if idx < 0 {
		idx = oldest
	}
	c := cands[idx]
	w.last[tid] = c.ID + 1
	weight := max(c.Weight, 1)
	if len(cands) == 1 || weight > unbounded/w.quantum {
		return idx, unbounded
	}
	return idx, weight * w.quantum
}

// Retire implements Retirer: cursors pointing at the retired loop are
// dropped, so no cursor names a loop that no longer exists.
func (w *weightedRoundRobin) Retire(id uint64) {
	for tid, last := range w.last {
		if last == id+1 {
			w.last[tid] = 0
		}
	}
}

// fcfs is the run-to-completion baseline: every worker serves the oldest
// runnable loop until that loop has no work left for it. It minimizes
// per-loop completion time for the head of the queue at the cost of
// head-of-line blocking for everyone behind it — the comparison point that
// motivates weighted round-robin.
type fcfs struct{}

// NewFCFS returns the first-come-first-served policy.
func NewFCFS() Policy { return fcfs{} }

// Name implements Policy.
func (fcfs) Name() string { return "fcfs" }

// Pick implements Policy: always the oldest (lowest-ID) loop, with an
// effectively unbounded burst (the caller re-picks when the loop retires
// the worker). Oldest is found by ID — candidate slice order carries no
// age information.
func (fcfs) Pick(_ int, cands []Candidate) (int, int) {
	idx := 0
	for i, c := range cands {
		if c.ID < cands[idx].ID {
			idx = i
		}
	}
	return idx, unbounded
}
