package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// stressExec drives a scheduler with real concurrent goroutines, one per
// thread, feeding Next a fabricated monotonic clock, and asserts the
// exactly-once coverage invariant. Unlike virtualExec there is no global
// serialization: every lock-free path — sharded chunk removal, credit and
// span claims, packed-word phase transitions, migration notifications — runs
// genuinely in parallel, which is what `go test -race` needs to see.
func stressExec(t *testing.T, s Scheduler, info LoopInfo, migrate bool) {
	t.Helper()
	seen := make([]atomic.Int32, info.NI)
	var clock atomic.Int64
	var wg sync.WaitGroup
	for tid := 0; tid < info.NThreads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			m, _ := s.(Migratable)
			for n := 0; ; n++ {
				if migrate && m != nil && n%97 == 96 {
					// Hammer the migration path concurrently with scheduling.
					m.Migrate(tid, (tid+n)%info.NumTypes, clock.Load())
				}
				asg, ok := s.Next(tid, clock.Add(50))
				if !ok {
					return
				}
				if asg.Lo < 0 || asg.Hi > info.NI || asg.Lo >= asg.Hi {
					panic(fmt.Sprintf("%s: bad range [%d,%d)", s.Name(), asg.Lo, asg.Hi))
				}
				for i := asg.Lo; i < asg.Hi; i++ {
					seen[i].Add(1)
				}
			}
		}(tid)
	}
	wg.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("%s: iteration %d covered %d times", s.Name(), i, c)
		}
	}
}

// TestLockFreeSchedulersStress exercises every pool-backed scheduler with
// real goroutine concurrency across a GOMAXPROCS sweep. The small Major
// chunk forces AID-dynamic through many phase transitions, stressing the
// packed CAS epoch word; the migrating variant additionally flips thread
// core types mid-loop.
func TestLockFreeSchedulersStress(t *testing.T) {
	ni := int64(120_000)
	if testing.Short() {
		ni = 20_000
	}
	info := conformanceInfo(ni, 2, 6)
	build := func(t *testing.T, name string) Scheduler {
		t.Helper()
		s, ok := conformanceSchedulers(t, info)[name]
		if !ok {
			t.Fatalf("unknown scheduler %s", name)
		}
		return s
	}
	names := []string{"dynamic", "guided", "aid-static", "aid-hybrid", "aid-dynamic"}
	for _, procs := range []int{1, 2, 8} {
		for _, name := range names {
			for _, migrate := range []bool{false, true} {
				label := fmt.Sprintf("procs=%d/%s", procs, name)
				if migrate {
					label += "/migrate"
				}
				t.Run(label, func(t *testing.T) {
					prev := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(prev)
					stressExec(t, build(t, name), info, migrate)
				})
			}
		}
	}
}

// TestAIDDynamicManyPhases pins the phase machinery: with m=M=1 every
// allotment is tiny, maximizing epoch turnover and transition contention.
func TestAIDDynamicManyPhases(t *testing.T) {
	info := conformanceInfo(30_000, 4, 4)
	a, err := NewAIDDynamic(info, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	stressExec(t, a, info, false)
}

// TestResetStress is Reset under real goroutines: every conformance
// scheduler runs a migrating loop to completion, is Reset for a loop of
// another trip count and thread mix, runs that, and is Reset back — three
// executions on one instance, each covering its loop exactly once. The
// goroutines of one execution have all returned before the Reset (the
// contract's quiescence), which is the only ordering between them and it:
// the race detector checks that this suffices.
func TestResetStress(t *testing.T) {
	ni := int64(60_000)
	if testing.Short() {
		ni = 10_000
	}
	loops := []LoopInfo{conformanceInfo(ni, 2, 6), conformanceInfo(ni/3+1, 3, 1), conformanceInfo(ni/2, 2, 6)}
	for name, s := range conformanceSchedulers(t, loops[0]) {
		t.Run(name, func(t *testing.T) {
			rs, ok := s.(Resettable)
			if !ok {
				t.Fatalf("%s does not implement Resettable", name)
			}
			for i, info := range loops {
				if i > 0 {
					if err := rs.Reset(info); err != nil {
						t.Fatal(err)
					}
				}
				stressExec(t, rs, info, i == 0)
			}
		})
	}
}
