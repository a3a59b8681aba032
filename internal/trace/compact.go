package trace

// Sampled-capture primitives: always-on recording at service scale cannot
// afford one ChunkEvent per grant per loop forever, so the service tier
// records every Nth loop instance and bounds each instance's event stream
// with the two lossy-but-honest reductions below. Compaction merges what
// replay does not need to distinguish (adjacent contiguous grants to the
// same worker); the budget keeps what a latency investigation reads first
// (the head, where the schedulers' sampling phases live, and the tail,
// where the barrier convergence lives).

// CompactEvents merges adjacent same-thread grants: consecutive events of
// one worker in one loop whose ranges are contiguous (previous Hi == next
// Lo) collapse into a single event spanning both, with their execution
// time, cost and runtime-call charges summed. The call charges are int16, as
// the scheduler reports them, so a grant whose PoolAccesses or Timestamps
// would take a sum out of that range starts a new event instead, and the
// totals a replay charges stay exact. The merged event keeps the
// first grant's Seq and TimeNs — it describes work that started then — so
// a compacted stream stays chronologically ordered and replays through the
// same code paths, just at coarser grain. Retirements never merge (they
// are the barrier bookkeeping replay keys on), and events of different
// loops or threads never merge across each other even when interleaved.
//
// The input must be in the engines' event order (time, then tid, then
// per-worker seq); the output preserves it. evs is not modified.
func CompactEvents(evs []ChunkEvent) []ChunkEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]ChunkEvent, 0, len(evs))
	// last[tid] is the index in out of worker tid's most recent kept
	// event; a worker's grants are sequential per loop, so contiguity only
	// needs to be checked against that one event.
	last := map[int32]int{}
	for _, ev := range evs {
		if li, ok := last[ev.Tid]; ok && !ev.Retire {
			prev := &out[li]
			pool, poolFits := sum16(prev.PoolAccesses, ev.PoolAccesses)
			ts, tsFits := sum16(prev.Timestamps, ev.Timestamps)
			if !prev.Retire && prev.Loop == ev.Loop && prev.Hi == ev.Lo && poolFits && tsFits {
				prev.Hi = ev.Hi
				prev.Cost += ev.Cost
				prev.ExecNs += ev.ExecNs
				prev.PoolAccesses, prev.Timestamps = pool, ts
				continue
			}
		}
		out = append(out, ev)
		last[ev.Tid] = len(out) - 1
	}
	return out
}

// sum16 returns a+b and whether it fits in an int16.
func sum16(a, b int16) (int16, bool) {
	s := int32(a) + int32(b)
	return int16(s), s == int32(int16(s))
}

// TrimToBudget bounds evs to at most budget events by dropping the middle:
// the first budget/2 events and the last budget-budget/2 are retained, the
// rest discarded. Head/tail retention keeps the two regions an
// investigation reads first — the start of the loop (AID sampling phases,
// first grants) and the barrier convergence (final grants, retirements) —
// at the cost of the steady-state middle, which compaction has usually
// already collapsed. A budget <= 0 means unbounded (evs is returned as
// is).
func TrimToBudget(evs []ChunkEvent, budget int) []ChunkEvent {
	if budget <= 0 || len(evs) <= budget {
		return evs
	}
	head := budget / 2
	out := make([]ChunkEvent, 0, budget)
	out = append(out, evs[:head]...)
	out = append(out, evs[len(evs)-(budget-head):]...)
	return out
}
