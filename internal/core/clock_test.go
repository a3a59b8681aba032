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

// call is one recorded Next call: who called, with which nowNs, what it got,
// what ReadsClock answered for the caller right after, and whether the call
// left the caller in AID-static/hybrid's sampling wait.
type call struct {
	tid   int
	nowNs int64
	got   grant
	reads bool
	wait  bool
}

// nextRecorder passes Next calls through to its Scheduler and records them.
type nextRecorder struct {
	Scheduler
	calls []call
}

func (r *nextRecorder) Next(tid int, nowNs int64) (Assign, bool) {
	asg, ok := r.Scheduler.Next(tid, nowNs)
	a, _ := r.Scheduler.(*AIDHybrid)
	wait := a != nil && a.th[tid].state == stSamplingWait
	r.calls = append(r.calls, call{tid, nowNs, grant{asg, ok}, ReadsClock(r.Scheduler, tid), wait})
	return asg, ok
}

// alienNs is a nowNs no virtualExec run produces: its clocks start at 0 and
// stay below a second on these loops.
const alienNs = 1<<50 + 12345

// TestClockFreeSchedulersIgnoreNow holds ReadsClock to its promise, per
// thread. Every conformance scheduler is driven clocked (virtualExec), fresh
// and again after a Reset to another loop shape and to a loop whose iteration
// costs vary from pair to pair. Per thread, the answer before the first call
// is false for the five clock-free types and true for the AID families; once
// false it stays false; and every call after the flip carries Timestamps ==
// 0. An AID-static/hybrid thread has filed its measurement once it waits for
// the other samplers, so the answer is false from its sampling wait on, and
// the sampling variants must reach that wait in the first loop. A twin driven
// in the same pick order must return exactly the same grants when each
// post-flip call is handed (a) the thread's last stamp before the flip — 0
// for a thread that never read the clock — as the registry hands it, and (b)
// alienNs. The AID-static/hybrid/dynamic families must flip at least one
// thread of the first loop; a wrapper the switch does not know reads the
// clock.
func TestClockFreeSchedulersIgnoreNow(t *testing.T) {
	uniform := func(ct int, _ int64) int64 { return []int64{100, 300}[ct] }
	// Pairs of iterations alternate between cheap and ten times dearer, so
	// the big threads' 2-iteration sampling chunks disagree.
	irregular := func(ct int, i int64) int64 { return uniform(ct, i) * (1 + 9*(i/2%2)) }
	rounds := []struct {
		info   LoopInfo
		iterNs func(ct int, i int64) int64
	}{
		{conformanceInfo(10007, 2, 2), uniform},
		{conformanceInfo(4099, 1, 3), uniform},
		{conformanceInfo(10007, 2, 2), irregular},
	}
	mustFlip := map[string]int{"aid-static": 0, "aid-static-offline": 0, "aid-hybrid": 0,
		"aid-dynamic": 0}
	mustWait := map[string]int{"aid-static": 0, "aid-hybrid": 0}
	clocked := conformanceSchedulers(t, rounds[0].info)
	stale := conformanceSchedulers(t, rounds[0].info)
	alien := conformanceSchedulers(t, rounds[0].info)
	for name, s := range clocked {
		clockFree := !strings.HasPrefix(name, "aid-")
		for round, rd := range rounds {
			if round > 0 {
				for _, sc := range []Scheduler{s, stale[name], alien[name]} {
					if err := sc.(Resettable).Reset(rd.info); err != nil {
						t.Fatal(err)
					}
				}
			}
			nt := rd.info.NThreads
			for tid := 0; tid < nt; tid++ {
				if got := ReadsClock(s, tid); got == clockFree {
					t.Errorf("%s, round %d: ReadsClock(thread %d) = %v before its first call, want %v",
						name, round, tid, got, !clockFree)
				}
			}
			rec := &nextRecorder{Scheduler: s}
			virtualExecCost(t, rec, rd.info, rd.iterNs)
			if !ReadsClock(rec, 0) {
				t.Errorf("%s: ReadsClock called a scheduler type it does not know clock-free", name)
			}

			// post[i]: call i came after its thread's flip. stamp[tid]: the
			// thread's last nowNs before the flip.
			post := make([]bool, len(rec.calls))
			stamp := make([]int64, nt)
			free := make([]bool, nt)
			for tid := range free {
				free[tid] = clockFree
			}
			flipped, waited := 0, 0
			for i, c := range rec.calls {
				post[i] = free[c.tid]
				if c.wait {
					waited++
				}
				switch {
				case c.wait && c.reads:
					t.Errorf("%s, round %d: ReadsClock(thread %d) = true in the sampling wait after call %d",
						name, round, c.tid, i)
				case post[i] && c.got.asg.Timestamps != 0:
					t.Errorf("%s, round %d: call %d (thread %d) after the flip carries %d timestamps",
						name, round, i, c.tid, c.got.asg.Timestamps)
				case post[i] && c.reads:
					t.Errorf("%s, round %d: ReadsClock(thread %d) went back to true after call %d",
						name, round, c.tid, i)
				case !post[i] && !c.reads:
					free[c.tid], stamp[c.tid] = true, c.nowNs
					flipped++
				}
			}
			if want, ok := mustFlip[name]; ok && want == round && flipped == 0 {
				t.Errorf("%s, round %d: no thread stopped reading the clock", name, round)
			}
			if want, ok := mustWait[name]; ok && want == round && waited == 0 {
				t.Errorf("%s, round %d: no thread entered the sampling wait", name, round)
			}

			for _, twin := range []struct {
				kind   string
				s      Scheduler
				frozen func(tid int) int64
			}{
				{"its last stamp", stale[name], func(tid int) int64 { return stamp[tid] }},
				{"a constant", alien[name], func(int) int64 { return alienNs }},
			} {
				for i, c := range rec.calls {
					now := c.nowNs
					if post[i] {
						now = twin.frozen(c.tid)
					}
					asg, ok := twin.s.Next(c.tid, now)
					if g := (grant{asg, ok}); g != c.got {
						t.Errorf("%s, round %d: call %d (thread %d) handed %s (%d) returned %+v, with the clock (%d) %+v",
							name, round, i, c.tid, twin.kind, now, g, c.nowNs, c.got)
						break
					}
				}
			}
		}
	}
}
