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
	first := []int64{0, 0, 1}
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
		iters, finish := make([]int64, 3), make([]int64, 3)
		release, accesses, snap := l.Release(0, iters, finish)
		if release != 11 || accesses != int64(len(script)) {
			t.Errorf("team %v: release at %d with %d pool accesses, want 11 and %d", team, release, accesses, len(script))
		}
		if sum := iters[0] + iters[1] + iters[2]; sum != ni || snap.Iters != ni {
			t.Errorf("team %v: lanes count %v iterations, metrics %d, want %d in all", team, iters, snap.Iters, ni)
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
				want = release - first[tid]
			}
			if got := w.BusyNs + w.SchedNs + w.IdleNs; got != want {
				t.Errorf("team %v, worker %d: busy %d + sched %d + idle %d = %d, want %d", team, tid, w.BusyNs, w.SchedNs, w.IdleNs, got, want)
			}
			if sync := sink.timeIn(tid, trace.Sync); sync != w.IdleNs {
				t.Errorf("team %v, worker %d: %d ns of Sync, IdleNs %d", team, tid, sync, w.IdleNs)
			}
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
