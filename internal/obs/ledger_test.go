package obs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// tapeSink keeps what a ledger emits, per worker.
type tapeSink struct {
	ivs    [][]trace.Interval
	events []trace.ChunkEvent
}

func (s *tapeSink) Add(tid int, start, end int64, st trace.State) {
	s.ivs[tid] = append(s.ivs[tid], trace.Interval{Start: start, End: end, State: st})
}

func (s *tapeSink) Chunk(ev trace.ChunkEvent) { s.events = append(s.events, ev) }

// estimator is a loop's scheduler as Release sees it: a name and, when sf is
// non-nil, a finished SF estimate.
type estimator struct{ sf []float64 }

func (estimator) Next(int, int64) (core.Assign, bool) { return core.Assign{}, false }
func (estimator) Name() string                        { return "probe" }
func (e estimator) SFEstimate() ([]float64, bool)     { return e.sf, e.sf != nil }

func (s *tapeSink) timeIn(tid int, st trace.State) int64 {
	var sum int64
	for _, iv := range s.ivs[tid] {
		if iv.State == st {
			sum += iv.End - iv.Start
		}
	}
	return sum
}

// TestLedgerConservation drives one ledger through a scripted loop of ten
// iterations on three workers, once as a team and once as a fleet, and
// checks the laws the two engines rely on: the lanes' iterations sum to the
// trip count, every non-retire event is one counted chunk, each worker's
// busy + sched + idle spans its first call to the release in a team and to
// its own retirement in a fleet, and a team's Sync intervals are its IdleNs.
// The outcome is filled from the lanes and the scheduler, the join included
// in End, and Release reuses a recycled outcome's Iters.
func TestLedgerConservation(t *testing.T) {
	const ni = 10
	type step struct {
		tid                int
		now, schedEnd, end int64 // end < 0: the call retires the worker
		lo, hi             int64
	}
	script := []step{
		{0, 0, 1, 5, 0, 4}, {1, 0, 2, 8, 6, 9}, {2, 1, 2, 3, 9, 10},
		{2, 3, 4, -1, 0, 0}, {0, 5, 6, 10, 4, 6}, {1, 8, 9, -1, 0, 0}, {0, 10, 11, -1, 0, 0},
	}
	first, finish := []int64{0, 0, 1}, []int64{11, 9, 4} // the first call, the retirement
	for _, team := range []bool{true, false} {
		m := New(3, 2, func(tid int) int { return tid / 2 })
		sink := &tapeSink{ivs: make([][]trace.Interval, 3)}
		var l Ledger
		l.Arm([]int{0, 0, 1}, nil, m, sink, sink, 0, team)
		for _, s := range script {
			ln := l.Lane(s.tid)
			asg := core.Assign{Lo: s.lo, Hi: s.hi}
			asg.PoolAccesses = 1
			ln.Call(asg, s.now, s.schedEnd)
			if s.end < 0 {
				ln.Retire(asg, s.now, s.schedEnd)
			} else {
				ln.Chunk(asg, s.now, s.schedEnd, s.end, 0)
			}
		}
		const join = 2
		iters := make([]int64, 0, 3)
		out := Outcome{Start: -7, Iters: iters, PoolAccesses: 99, SFEstimate: []float64{9}}
		l.Release(join, estimator{sf: []float64{2, 1}}, &out)
		release := out.End - join
		if out.Start != -7 || release != 11 || out.PoolAccesses != int64(len(script)) {
			t.Errorf("team %v: start %d, release at %d with %d pool accesses, want -7, 11 and %d",
				team, out.Start, release, out.PoolAccesses, len(script))
		}
		if &out.Iters[0] != &iters[:1][0] {
			t.Errorf("team %v: Release reallocated Iters, whose capacity fits", team)
		}
		snap := out.Metrics
		if sum := out.Iters[0] + out.Iters[1] + out.Iters[2]; sum != ni || snap.Iters != ni {
			t.Errorf("team %v: lanes count %v iterations, metrics %d, want %d in all", team, out.Iters, snap.Iters, ni)
		}
		if out.SchedulerName != "probe" || len(out.SFEstimate) != 2 || out.SFEstimate[0] != 2 {
			t.Errorf("team %v: scheduler %q with SF %v, want probe with [2 1]", team, out.SchedulerName, out.SFEstimate)
		}
		chunks := 0
		for _, ev := range sink.events {
			if !ev.Retire {
				chunks++
			}
		}
		if int64(chunks) != snap.Chunks {
			t.Errorf("team %v: %d chunk events, %d chunks counted", team, chunks, snap.Chunks)
		}
		for tid, w := range snap.Workers {
			want := finish[tid] - first[tid]
			if team {
				want = out.End - first[tid] // the join is the team's sched time
			}
			if got := w.BusyNs + w.SchedNs + w.IdleNs; got != want {
				t.Errorf("team %v, worker %d: busy %d + sched %d + idle %d = %d, want %d", team, tid, w.BusyNs, w.SchedNs, w.IdleNs, got, want)
			}
			if sync := sink.timeIn(tid, trace.Sync); sync != w.IdleNs {
				t.Errorf("team %v, worker %d: %d ns of Sync, IdleNs %d", team, tid, sync, w.IdleNs)
			}
		}
		// Released again under a scheduler whose estimate is not ready, the
		// outcome drops the earlier one.
		l.Release(join, estimator{}, &out)
		if out.SFEstimate != nil {
			t.Errorf("team %v: an estimate not ready publishes %v, want nil", team, out.SFEstimate)
		}
	}
}

// TestLedgerGrantAllocs: a grant with metrics on allocates nothing.
func TestLedgerGrantAllocs(t *testing.T) {
	var l Ledger
	l.Arm([]int{0}, nil, New(1, 1, nil), nil, nil, 0, false)
	ln := l.Lane(0)
	asg := core.Assign{Lo: 0, Hi: 1}
	if n := testing.AllocsPerRun(1000, func() {
		ln.Call(asg, 0, 1)
		ln.Chunk(asg, 0, 1, 2, 0)
	}); n != 0 {
		t.Errorf("a metrics-on grant allocates %v objects, want 0", n)
	}
}
