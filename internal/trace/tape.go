package trace

import (
	"cmp"
	"fmt"
	"slices"
)

// Tapes is one loop's capture on the real-goroutine runtime, one tape per
// worker that only that worker writes while the loop runs: the obs.Timeline
// and obs.Events of the loop's ledger and the sink of its scheduler's phase
// observer. A Recorder takes it once the loop's barrier has released
// (AddTapes). Make it with make(Tapes, nthreads).
type Tapes []tape

// tape is one worker's capture of one loop: events in eventStream's blocks,
// which never go back to eventBlocks (every record built from a tape reads
// the same events), intervals under Recorder.Add's contract, phases in the
// worker's order. The
// pad keeps neighbouring workers' tape headers off each other's cache lines.
type tape struct {
	events    eventStream
	phases    []PhaseEvent
	intervals []Interval
	_         [64]byte
}

// Add appends an interval to worker tid's tape under Recorder.Add's
// contract, which it is the one implementation of.
func (t Tapes) Add(tid int, start, end int64, s State) {
	if tid < 0 || tid >= len(t) {
		panic(fmt.Sprintf("trace: Add tid %d out of range [0,%d)", tid, len(t)))
	}
	if end <= start {
		return
	}
	ivs := t[tid].intervals
	if n := len(ivs); n > 0 {
		if last := &ivs[n-1]; last.End > start {
			panic(fmt.Sprintf("trace: thread %d interval [%d,%d) overlaps previous end %d", tid, start, end, last.End))
		} else if last.End == start && last.State == s {
			last.End = end
			return
		}
	}
	t[tid].intervals = append(ivs, Interval{Start: start, End: end, State: s})
}

// Chunk appends ev to its worker's tape. Its Seq is the worker's own count;
// the Recorder that takes the tapes numbers the record's.
func (t Tapes) Chunk(ev ChunkEvent) { t[ev.Tid].events.add(&ev) }

// Phase appends a scheduler transition to its worker's tape; the Recorder
// that takes the tapes sets its Loop.
func (t Tapes) Phase(p PhaseEvent) { t[p.Tid].phases = append(t[p.Tid].phases, p) }

// Thread returns what worker tid captured, each in the worker's order: a
// copy of its events, and its phases and intervals, which the caller must
// not modify.
func (t Tapes) Thread(tid int) ([]ChunkEvent, []PhaseEvent, []Interval) {
	return t[tid].events.appendTo(nil), t[tid].phases, t[tid].intervals
}

// taken is a loop's tapes as AddTapes took them.
type taken struct {
	tapes        Tapes
	loop, budget int
}

// AddTapes registers loop l, as AddLoop does, and takes t, its capture of one
// tape per thread of the run, with budget, the most events the record may
// hold of it (0 keeps all, uncompacted). EndRun merges the loops taken: each
// loop's events are reduced to its budget (CompactEvents, then
// TrimToBudget), then all are put in EventOrder and numbered; their phases
// are put in time order, a worker's own order breaking ties, and appended
// as Phase appends them. A timed recorder takes one loop's tapes at most, and lays out their
// intervals as its timeline, in place of any given to Add. The recorder
// never writes a tape. A recorder takes tapes or is handed events through
// Chunk, not both.
func (r *Recorder) AddTapes(l LoopRecord, t Tapes, budget int) {
	if len(t) != r.rec.NThreads {
		panic(fmt.Sprintf("trace: AddTapes of %d tapes on a run of %d threads", len(t), r.rec.NThreads))
	}
	if r.timed && len(r.taken) > 0 {
		panic("trace: a timed recorder takes one loop's tapes")
	}
	r.taken = append(r.taken, taken{t, r.AddLoop(l), budget})
}

// merge brings the events and phases of the loops taken into the record.
func (r *Recorder) merge() {
	if len(r.taken) == 0 {
		return
	}
	n := 0
	for _, tk := range r.taken {
		for tid := range tk.tapes {
			n += tk.tapes[tid].events.len()
		}
	}
	evs := r.events.events(n)
	from := len(evs)
	var phs []PhaseEvent
	for _, tk := range r.taken {
		at := len(evs)
		for tid := range tk.tapes {
			tp := &tk.tapes[tid]
			evs = tp.events.appendTo(evs)
			for _, p := range tp.phases {
				p.Loop = tk.loop
				phs = append(phs, p)
			}
		}
		if tk.budget > 0 {
			slices.SortFunc(evs[at:], EventOrder) // the order compaction needs
			evs = append(evs[:at], TrimToBudget(CompactEvents(evs[at:]), tk.budget)...)
		}
		for i := at; i < len(evs); i++ {
			evs[i].Loop = int32(tk.loop)
		}
	}
	if len(evs) < cap(evs) {
		// A budget kept fewer events than were captured, and the record
		// keeps no room for the rest.
		evs = append(make([]ChunkEvent, 0, len(evs)), evs...)
	}
	// A worker's Seq runs on across its loops, so no two events tie.
	slices.SortFunc(evs[from:], EventOrder)
	for i := from; i < len(evs); i++ {
		evs[i].Seq = int64(i)
	}
	r.seq, r.events.head = int64(len(evs)), evs
	slices.SortStableFunc(phs, func(a, b PhaseEvent) int {
		if a.TimeNs != b.TimeNs {
			return cmp.Compare(a.TimeNs, b.TimeNs)
		}
		return cmp.Compare(a.Tid, b.Tid)
	})
	r.rec.Phases = append(r.rec.Phases, phs...)
}

// EventOrder is the one order of a record's chunk events: by time, then
// thread, then Seq, which on a runtime's tapes is each worker's own count:
// the ground truth of its grant order, which replay depends on and a coarse
// wall clock cannot give. The simulator streams its events in this order,
// and a Recorder puts the tapes it takes in it.
func EventOrder(a, b ChunkEvent) int {
	if a.TimeNs != b.TimeNs {
		return cmp.Compare(a.TimeNs, b.TimeNs)
	}
	if a.Tid != b.Tid {
		return cmp.Compare(a.Tid, b.Tid)
	}
	return cmp.Compare(a.Seq, b.Seq)
}
