package core

import (
	"testing"
)

// TestNextSteadyStateAllocs pins the zero-allocation property of the chunk
// hot path: once a scheduler is past its transient phases (AID sampling,
// allotment computation), every Next call must serve from the thread's
// stash, credit, or the lock-free pool without touching the heap.
//
// Coverage is limited to the schedulers whose steady state IS the per-chunk
// claim loop. AID-static (one-shot allotments, a handful of calls total)
// has no such steady state; guided has one but drains in O(P·log NI) calls,
// so it gets a huge loop and a short measurement window. AID-dynamic's
// steady state is its AID phases, and a phase only turns over when every
// thread reports, so its measured run is one Next per thread (allThreads):
// the window then spans whole phases — span claims into the stash, R
// smoothing into the spare table, the epoch advance — not just thread 0's
// wait state.
func TestNextSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cases := []struct {
		name       string
		ni         int64
		build      func(info LoopInfo) (Scheduler, error)
		warm, runs int
		allThreads bool
	}{
		{"static-chunked", 1 << 24,
			func(info LoopInfo) (Scheduler, error) { return NewStaticChunked(info, 3) }, 64, 2000, false},
		{"dynamic", 1 << 24,
			func(info LoopInfo) (Scheduler, error) { return NewDynamic(info, 4) }, 64, 2000, false},
		{"guided", 1 << 40,
			func(info LoopInfo) (Scheduler, error) { return NewGuided(info, 1) }, 4, 32, false},
		{"aid-hybrid", 1 << 24,
			func(info LoopInfo) (Scheduler, error) { return NewAIDHybrid(info, 1, 0.8) }, 20000, 2000, false},
		{"aid-dynamic", 1 << 24,
			func(info LoopInfo) (Scheduler, error) { return NewAIDDynamic(info, 1, 5) }, 64, 2000, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info := conformanceInfo(c.ni, 1, 1)
			s, err := c.build(info)
			if err != nil {
				t.Fatalf("building %s: %v", c.name, err)
			}
			// Warm past the transient phases: sampling, SF estimation, and
			// the first final-phase allotment all happen in here, as does
			// any one-time stash/credit growth.
			now := int64(1)
			for i := 0; i < c.warm; i++ {
				for tid := 0; tid < info.NThreads; tid++ {
					if _, ok := s.Next(tid, now); !ok {
						t.Fatalf("%s drained during warm-up", c.name)
					}
					now += 100
				}
			}
			ad, _ := s.(*AIDDynamic)
			var epoch uint32
			if ad != nil {
				if epoch = ad.smp.epoch(); epoch == 0 {
					t.Fatalf("%s still sampling after warm-up", c.name)
				}
			}
			measured := 1
			if c.allThreads {
				measured = info.NThreads
			}
			if n := testing.AllocsPerRun(c.runs, func() {
				for tid := 0; tid < measured; tid++ {
					if _, ok := s.Next(tid, now); !ok {
						t.Fatalf("%s drained mid-measurement", c.name)
					}
					now += 100
				}
			}); n != 0 {
				t.Errorf("%s: steady-state Next allocates %v per op, want 0", c.name, n)
			}
			if ad != nil && ad.smp.epoch() < epoch+10 {
				t.Errorf("%s: measurement window covered %d phase transitions, want >= 10",
					c.name, ad.smp.epoch()-epoch)
			}
		})
	}
}
