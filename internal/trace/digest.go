package trace

import "fmt"

// Digest is the one summary of a record that every reader of a run shares:
// aidstat's report (obs.Analyze) and the regression diff (replay.Diff) take
// their per-thread times, chunk counts, per-loop summaries and imbalance from
// here, and Record.Render uses the same formula, so one run prints one
// imbalance whichever command reads it. All times are on the producing
// engine's clock (virtual ns for sim records, monotonic wall ns for rt).
type Digest struct {
	// StartNs is the analysis window's origin on the record's clock; SpanNs
	// is its length: the recorded makespan when present, otherwise the
	// extent of the event stream.
	StartNs, SpanNs int64
	// Timed reports whether the record carries a timeline, the only source
	// of the threads' SchedNs and SyncNs (both zero when it is false).
	Timed bool
	// Threads is the per-thread breakdown, indexed by tid.
	Threads []ThreadDigest
	// Loops summarizes each recorded loop, indexed like Record.Loops.
	Loops []LoopDigest
	// ImbalancePct is the load imbalance of the threads' busy times,
	// 100·(max − min)/max: 0 when balanced, 100 when a thread did nothing
	// while another worked.
	ImbalancePct float64
}

// ThreadDigest is one worker's share of the recorded run.
type ThreadDigest struct {
	Tid int
	// Type is the thread's home cluster (the Shard of its last event).
	Type int
	// BusyNs sums the ExecNs of the thread's grants, which both engines
	// make equal to its timeline Running time; UtilPct is BusyNs over the
	// analysis span.
	BusyNs  int64
	UtilPct float64
	// SchedNs and SyncNs are the thread's timeline Sched and Sync time.
	SchedNs, SyncNs int64
	// Chunks and Iters count the thread's grants and their iterations.
	Chunks, Iters int64
	// PoolAccesses sums the runtime-cost metadata of its scheduler calls,
	// retirements included.
	PoolAccesses int64
}

// LoopDigest condenses one loop's recorded life.
type LoopDigest struct {
	Name      string
	Scheduler string
	NI        int64
	// Iters counts recorded granted iterations (< NI when the producer
	// compacted or trimmed the event stream).
	Iters  int64
	Chunks int64
	// StartNs/EndNs bound the loop's recorded events.
	StartNs, EndNs int64
	// PhaseCounts tallies the scheduler's transitions by kind, and
	// PhaseKinds lists the kinds in first-occurrence order.
	PhaseCounts map[string]int
	PhaseKinds  []string
	// SFFirst and SFLast are the SF tables of the loop's first and last
	// phases that published one (nil when none did) — the SF trajectory's
	// endpoints; SFSamples counts its points, endpoints included.
	SFFirst, SFLast []float64
	SFSamples       int
}

// Digest summarizes the record in one pass over its events, phases and
// timeline. The record must be valid (decoded records are).
func (r *Record) Digest() Digest {
	d := Digest{
		StartNs: r.StartNs,
		SpanNs:  r.MakespanNs,
		Timed:   len(r.Timeline) > 0,
		Threads: make([]ThreadDigest, r.NThreads),
		Loops:   make([]LoopDigest, len(r.Loops)),
	}
	for tid := range d.Threads {
		d.Threads[tid].Tid = tid
	}
	for i, l := range r.Loops {
		d.Loops[i] = LoopDigest{Name: l.Name, Scheduler: l.Scheduler, NI: l.NI,
			StartNs: -1, PhaseCounts: make(map[string]int)}
	}
	var maxEnd int64
	for _, ev := range r.Events {
		th := &d.Threads[ev.Tid]
		th.Type = int(ev.Shard)
		th.PoolAccesses += int64(ev.PoolAccesses)
		ls := &d.Loops[ev.Loop]
		if ls.StartNs < 0 || ev.TimeNs < ls.StartNs {
			ls.StartNs = ev.TimeNs
		}
		end := ev.TimeNs + ev.ExecNs
		ls.EndNs = max(ls.EndNs, end)
		maxEnd = max(maxEnd, end)
		if ev.Retire {
			continue
		}
		th.BusyNs += ev.ExecNs
		th.Chunks++
		th.Iters += ev.Hi - ev.Lo
		ls.Chunks++
		ls.Iters += ev.Hi - ev.Lo
	}
	if d.SpanNs <= 0 && maxEnd > d.StartNs {
		d.SpanNs = maxEnd - d.StartNs
	}
	for _, iv := range r.Timeline {
		if iv.EndNs <= iv.StartNs {
			continue // Recorder.Add drops these too
		}
		switch th := &d.Threads[iv.Tid]; iv.State {
		case Sched:
			th.SchedNs += iv.EndNs - iv.StartNs
		case Sync:
			th.SyncNs += iv.EndNs - iv.StartNs
		}
	}
	for tid := range d.Threads {
		if th := &d.Threads[tid]; d.SpanNs > 0 {
			th.UtilPct = 100 * float64(th.BusyNs) / float64(d.SpanNs)
		}
	}
	d.ImbalancePct = imbalancePct(len(d.Threads), func(tid int) int64 { return d.Threads[tid].BusyNs })
	for _, p := range r.Phases {
		ls := &d.Loops[p.Loop]
		if _, seen := ls.PhaseCounts[p.Kind]; !seen {
			ls.PhaseKinds = append(ls.PhaseKinds, p.Kind)
		}
		ls.PhaseCounts[p.Kind]++
		if len(p.SF) > 0 {
			if ls.SFFirst == nil {
				ls.SFFirst = p.SF
			}
			ls.SFLast = p.SF
			ls.SFSamples++
		}
	}
	return d
}

// Total sums the per-thread digests into one (Tid, Type and UtilPct stay
// zero).
func (d Digest) Total() ThreadDigest {
	var t ThreadDigest
	for _, th := range d.Threads {
		t.BusyNs += th.BusyNs
		t.SchedNs += th.SchedNs
		t.SyncNs += th.SyncNs
		t.Chunks += th.Chunks
		t.Iters += th.Iters
		t.PoolAccesses += th.PoolAccesses
	}
	return t
}

// LoopName resolves a loop index to the recorded loop's name, or "loop-<i>"
// for an index the record has no loop for.
func (r *Record) LoopName(i int) string {
	if i >= 0 && i < len(r.Loops) {
		return r.Loops[i].Name
	}
	return fmt.Sprintf("loop-%d", i)
}

// imbalancePct is the repository's one load-imbalance formula over n
// threads' busy times: 100·(max − min)/max, 0 when no thread was busy.
func imbalancePct(n int, busy func(tid int) int64) float64 {
	var minBusy, maxBusy int64 = -1, 0
	for tid := 0; tid < n; tid++ {
		b := busy(tid)
		if minBusy == -1 || b < minBusy {
			minBusy = b
		}
		maxBusy = max(maxBusy, b)
	}
	if maxBusy == 0 {
		return 0
	}
	return 100 * float64(maxBusy-minBusy) / float64(maxBusy)
}
