package obs

import (
	"slices"

	"repro/internal/core"
	"repro/internal/trace"
)

// Timeline and Events receive a ledger's intervals and chunk events: a
// *trace.Trace and a *trace.Recorder, or the runtime's capture tapes. A
// timeline drops zero-length intervals.
type (
	Timeline interface {
		Add(tid int, start, end int64, s trace.State)
	}
	Events interface{ Chunk(ev trace.ChunkEvent) }
)

// Ledger is one loop's accounting of its grants, the one both engines keep:
// a Lane per worker turns the worker's scheduler calls, chunks and
// retirement into counts, metrics, intervals and chunk events, and Release
// is the loop's barrier release. Arm re-arms it in place.
//
// The one rule for barrier waits: a loop owns its workers' waits only when
// it owns its fleet. In a team (sim.RunLoop, rt.Team) Release charges each
// worker's wait, from its retirement to the release, as IdleNs and a Sync
// interval. In a fleet (sim.RunLoops, every rt.Registry submission) a
// retired worker serves other loops or waits in the fleet, whose own
// accounting counts that time, and Release charges it to no loop.
type Ledger struct {
	lanes    []Lane
	types    []int // each worker's current core type, the engine's table
	dist     [][]int
	metrics  *Metrics
	timeline Timeline
	events   Events
	loop     int
	team     bool
}

// Lane is one worker's share of a ledger, written only by that worker until
// the release (doc.go, invariant 1). An unobserved lane — no metrics, no
// timeline, no events — counts iterations and pool accesses with one plain
// add each and reads none of the stamps it is passed, so an engine may pass
// it stale ones. A lane is two cache lines, so neighbouring workers' lanes
// share none (rt.TestRegistryHotLayout).
type Lane struct {
	iters, accesses int64
	observed        bool
	finish          int64 // the retirement stamp: the end of the final call
	// Seq numbers the lane's next chunk event. A Recorder renumbers what it
	// is handed; the runtime carries one count through a worker's loops.
	Seq   int64
	tid   int
	led   *Ledger
	cell  *Cell
	batch batch
}

// flushEvery is how many chunks a lane's batch holds before its cell gets it.
const flushEvery = 32

// Arm makes l an empty ledger for a loop of len(types) workers. types[tid]
// is worker tid's core type when it is granted a chunk (the event's Shard,
// the near end of its Tier): the ledger reads the engine's table, so it sees
// a migration. dist is the platform's cluster-distance matrix; m, tl and
// evs, where non-nil, receive the counters, the intervals and the events;
// loop is the events' Loop; team selects the barrier-wait rule.
func (l *Ledger) Arm(types []int, dist [][]int, m *Metrics, tl Timeline, evs Events, loop int, team bool) {
	lanes := slices.Grow(l.lanes[:0], len(types))[:len(types)]
	clear(lanes)
	*l = Ledger{lanes, types, dist, m, tl, evs, loop, team}
	for tid := range lanes {
		ln := &lanes[tid]
		ln.tid, ln.led, ln.observed = tid, l, m != nil || tl != nil || evs != nil
		if m != nil {
			ln.cell = m.Cell(tid)
		}
	}
}

// Lane returns worker tid's lane.
func (l *Ledger) Lane(tid int) *Lane { return &l.lanes[tid] }

// Call accounts a scheduler call over [now, schedEnd) that returned asg,
// granted or not: its pool accesses, its sched time, its credit and a Sched
// interval.
func (ln *Lane) Call(asg core.Assign, now, schedEnd int64) {
	ln.accesses += int64(asg.PoolAccesses)
	if ln.observed {
		ln.call(asg, now, schedEnd)
	}
}

func (ln *Lane) call(asg core.Assign, now, schedEnd int64) {
	ln.batch.SchedNs += schedEnd - now
	ln.batch.CreditClaimed += int64(asg.CreditClaimed)
	if tl := ln.led.timeline; tl != nil {
		tl.Add(ln.tid, now, schedEnd, trace.Sched)
	}
}

// Chunk accounts the chunk asg, granted by the call made at now and run over
// [schedEnd, end), worth units of work (0 where the engine does not know
// them): its iterations, the grant by tier, its busy time, a Running
// interval and its event.
func (ln *Lane) Chunk(asg core.Assign, now, schedEnd, end int64, units float64) {
	ln.iters += asg.N()
	if ln.observed {
		ln.chunk(asg, now, schedEnd, end, units)
	}
}

func (ln *Lane) chunk(asg core.Assign, now, schedEnd, end int64, units float64) {
	b := &ln.batch
	b.grant(asg.N(), Tier(ln.led.dist, ln.led.types[ln.tid], int(asg.Origin)))
	b.BusyNs += end - schedEnd
	if b.Chunks >= flushEvery {
		ln.Flush()
	}
	if tl := ln.led.timeline; tl != nil {
		tl.Add(ln.tid, schedEnd, end, trace.Running)
	}
	if evs := ln.led.events; evs != nil {
		ev := ln.event(asg, now)
		ev.Lo, ev.Hi, ev.Cost, ev.ExecNs = asg.Lo, asg.Hi, units, end-schedEnd
		evs.Chunk(ev)
	}
}

// Retire accounts the worker's retirement: the call made at now returned
// asg, granting nothing, and ended at schedEnd, the retirement stamp. It
// emits the retire event and flushes the batch; the lane is then quiescent.
func (ln *Lane) Retire(asg core.Assign, now, schedEnd int64) {
	ln.finish = schedEnd
	if ln.observed {
		ln.retire(asg, now)
	}
}

func (ln *Lane) retire(asg core.Assign, now int64) {
	if evs := ln.led.events; evs != nil {
		ev := ln.event(asg, now)
		ev.Retire = true
		evs.Chunk(ev)
	}
	ln.Flush()
}

// Flush applies the lane's batch to its cell, as a worker leaving a burst
// does, so that scrapers see its counts before it serves another loop.
func (ln *Lane) Flush() {
	if ln.cell != nil {
		ln.cell.apply(&ln.batch)
	}
}

// event is the chunk event of the call made at now, without what only a
// grant carries.
func (ln *Lane) event(asg core.Assign, now int64) trace.ChunkEvent {
	ln.Seq++
	return trace.ChunkEvent{Seq: ln.Seq - 1, TimeNs: now, Tid: ln.tid, Loop: ln.led.loop,
		Shard: ln.led.types[ln.tid], Origin: int(asg.Origin),
		PoolAccesses: int(asg.PoolAccesses), Timestamps: int(asg.Timestamps)}
}

// Outcome is what one loop execution reports, in the same terms in both
// engines: rt.LoopStats and sim.LoopResult embed it, and the loop ledger's
// Release fills every field but Start.
//
// Start and End bound the loop on the engine's clock: Start is the engine's
// (a team's fork, a fleet loop's admission, a runtime loop's submission),
// End the barrier release, the last retirement plus the join. The runtime
// publishes stamps only for a loop that reads the clock for metrics or
// capture: an unobserved loop's workers hand their lanes stale stamps, so
// its Start and End stay zero.
type Outcome struct {
	Start, End int64
	// Iters is the per-thread count of executed iterations.
	Iters []int64
	// PoolAccesses counts shared-pool operations across all threads.
	PoolAccesses int64
	// SchedulerName records which method ran the loop.
	SchedulerName string
	// SFEstimate is the scheduler's online per-core-type speedup-factor
	// estimate at the release (nil when the method derives none), a copy
	// the scheduler made for the outcome.
	SFEstimate []float64
	// Metrics is the loop's counter snapshot, nil without metrics. Its
	// IdleNs is the workers' barrier waits in a team and zero in a fleet,
	// whose loops do not own their workers' waits (Ledger).
	Metrics *Snapshot
}

// Release is the loop's barrier release, made once every lane has retired
// and by one goroutine: the quiescent merge of doc.go's invariant 5. It
// fills out, but for its Start, from the lanes and from s, the loop's
// scheduler, reusing the capacity of out.Iters. In a team it charges each
// worker's wait from its retirement to the release as IdleNs and a Sync
// interval, and the join, a runtime call after the release, as sched time
// and a Sched interval.
func (l *Ledger) Release(join int64, s core.Scheduler, out *Outcome) {
	maxFinish := l.lanes[0].finish
	for tid := range l.lanes {
		maxFinish = max(maxFinish, l.lanes[tid].finish)
	}
	out.Iters = slices.Grow(out.Iters[:0], len(l.lanes))[:len(l.lanes)]
	out.PoolAccesses = 0
	for tid := range l.lanes {
		ln := &l.lanes[tid]
		out.PoolAccesses += ln.accesses
		out.Iters[tid] = ln.iters
		if !l.team || !ln.observed {
			continue
		}
		if ln.cell != nil {
			ln.cell.Idle(maxFinish - ln.finish)
			ln.batch.SchedNs = join
			ln.Flush()
		}
		if l.timeline != nil {
			l.timeline.Add(tid, ln.finish, maxFinish, trace.Sync)
			l.timeline.Add(tid, maxFinish, maxFinish+join, trace.Sched)
		}
	}
	out.End = maxFinish + join
	out.SchedulerName, out.SFEstimate, out.Metrics = s.Name(), nil, nil
	if est, ok := s.(core.SFEstimator); ok {
		if sf, ready := est.SFEstimate(); ready {
			out.SFEstimate = sf
		}
	}
	if l.metrics != nil {
		snap := l.metrics.Snapshot()
		out.Metrics = &snap
	}
}
