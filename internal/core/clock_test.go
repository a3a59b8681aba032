package core

import (
	"strings"
	"testing"
)

// grant is one Next call's outcome.
type grant struct {
	asg Assign
	ok  bool
}

// nextRecorder passes Next calls through to its Scheduler and records which
// thread called and what it got.
type nextRecorder struct {
	Scheduler
	tids []int
	got  []grant
}

func (r *nextRecorder) Next(tid int, nowNs int64) (Assign, bool) {
	asg, ok := r.Scheduler.Next(tid, nowNs)
	r.tids = append(r.tids, tid)
	r.got = append(r.got, grant{asg, ok})
	return asg, ok
}

// TestClockFreeSchedulersIgnoreNow holds ReadsClock to its promise. Every
// scheduler it calls clock-free, driven in the pick order a clocked run
// (virtualExec) produced but with nowNs frozen at 0, must return exactly the
// grants the clocked run got — fresh, and again after both instances were
// Reset for a loop of another shape. Every AID family must report that it
// reads the clock, and so must a scheduler type ReadsClock does not know.
func TestClockFreeSchedulersIgnoreNow(t *testing.T) {
	infos := []LoopInfo{conformanceInfo(10007, 2, 2), conformanceInfo(4099, 1, 3)}
	clocked := conformanceSchedulers(t, infos[0])
	frozen := conformanceSchedulers(t, infos[0])
	for name, s := range clocked {
		reads := ReadsClock(s)
		if want := strings.HasPrefix(name, "aid-"); reads != want {
			t.Errorf("%s (%T): ReadsClock = %v, want %v", name, s, reads, want)
		}
		if reads {
			continue
		}
		for round, info := range infos {
			if round > 0 {
				if err := s.(Resettable).Reset(info); err != nil {
					t.Fatal(err)
				}
				if err := frozen[name].(Resettable).Reset(info); err != nil {
					t.Fatal(err)
				}
			}
			rec := &nextRecorder{Scheduler: s}
			virtualExec(t, rec, info, []int64{100, 300})
			if !ReadsClock(rec) {
				t.Errorf("%s: ReadsClock called a scheduler type it does not list clock-free", name)
			}
			for i, tid := range rec.tids {
				asg, ok := frozen[name].Next(tid, 0)
				if g := (grant{asg, ok}); g != rec.got[i] {
					t.Errorf("%s, round %d: call %d (thread %d) with nowNs 0 returned %+v, with the clock %+v",
						name, round, i, tid, g, rec.got[i])
					break
				}
			}
		}
	}
}
