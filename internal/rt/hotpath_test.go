package rt

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestRegistryHotLayout is the false-sharing guard for the registry's hot
// data, the rt companion of pool.TestShardLayout: the per-worker lanes of a
// loop's ledger must each fill whole cache lines (so worker i's updates never
// invalidate worker i+1's line), and the admission generation — loaded by
// every worker once per served chunk — must sit clear of both the control
// plane's mutex and the fields before it.
func TestRegistryHotLayout(t *testing.T) {
	var ledger obs.Ledger
	ledger.Arm(make([]int, 2), nil, nil, nil, nil, 0, false)
	if got := unsafe.Sizeof(obs.Lane{}); got != 128 {
		t.Errorf("sizeof(obs.Lane) = %d, want 128 (two cache lines per worker)", got)
	}
	if d := uintptr(unsafe.Pointer(ledger.Lane(1))) - uintptr(unsafe.Pointer(ledger.Lane(0))); d != 128 {
		t.Errorf("adjacent lanes are %d bytes apart, want 128", d)
	}
	var r Registry
	prevEnd := unsafe.Offsetof(r.metrics) + unsafe.Sizeof(r.metrics)
	genOff := unsafe.Offsetof(r.gen)
	if gap := genOff - prevEnd; gap < 64 {
		t.Errorf("gen is %d bytes after the preceding field, want >= 64 (own cache line)", gap)
	}
	if gap := unsafe.Offsetof(r.mu) - (genOff + unsafe.Sizeof(r.gen)); gap < 56 {
		t.Errorf("mu is %d bytes after gen, want >= 56 (Submit's increment must not share the mutex line)", gap)
	}
}

// TestRegistryThrottleFidelity checks the small-core emulation the chunk
// loop spins inline: on a 1B+1S fleet, with a body that takes the same wall
// time on either worker, the small worker's chunk occupancy (body plus spin,
// ExecNs) over the big worker's must be the configured slowdown. The body is
// long (50 us) against the clock reads that bracket it. Medians, not means:
// when the host runs both workers on one CPU for a while, the chunk that
// holds a context switch is milliseconds long and owns the mean.
func TestRegistryThrottleFidelity(t *testing.T) {
	reg := newFleet1B1S(t)
	defer reg.Close()
	want := reg.Slowdown(1)
	if reg.NThreads() != 2 || reg.Slowdown(0) != 1 || want < 1.5 {
		t.Fatalf("fleet of %d with slowdowns %v/%v, want 1B+1S", reg.NThreads(), reg.Slowdown(0), want)
	}
	l, err := reg.Submit(LoopRequest{N: 400, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 1},
		Capture: true, Body: func(_ int, _, _ int64) {
			for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	var execNs [2][]float64
	for _, ev := range l.Wait().Events {
		if !ev.Retire {
			execNs[ev.Tid] = append(execNs[ev.Tid], float64(ev.ExecNs))
		}
	}
	if len(execNs[0]) < 20 || len(execNs[1]) < 20 {
		t.Fatalf("workers served %d and %d chunks, want both busy", len(execNs[0]), len(execNs[1]))
	}
	big, _ := stats.Percentile(execNs[0], 50) // errors only on an empty sample, excluded above
	small, _ := stats.Percentile(execNs[1], 50)
	if ratio := small / big; math.Abs(ratio-want) > 0.1*want {
		t.Errorf("small/big median ExecNs = %.0f/%.0f = %.3f, want %.3f within 10%%", small, big, ratio, want)
	}
}

// TestRegistryThrottleUnobserved: the throttle is the small worker's own
// consumer of the chunk loop's clock reads, not a passenger on metrics' or
// capture's. With neither on and a clock-free schedule — the case in which an
// unthrottled worker reads no clock per chunk — the big worker must still
// execute Slowdown(1) times the small worker's iterations of a loop whose
// 50 us body takes the same wall time on either (median of five loops).
//
// Only undisturbed loops count. The host may take a worker's CPU away for
// milliseconds, and a worker that loses it for a while hands the other the
// rest of the pool; a small worker that loses it mid-body is even throttled
// for the lost time. Either skews the ratio 1.3-5x, so the body stamps each
// worker's calls and a loop in which one worker started, paused or stopped
// more than noiseGap apart from the other is run again. Undisturbed loops
// read 1.80-1.99 against a slowdown of 1.905 on a two-CPU host.
func TestRegistryThrottleUnobserved(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the workers must run side by side for their iteration counts to show the throttle")
	}
	reg := newFleet1B1S(t)
	defer reg.Close()
	want := reg.Slowdown(1)
	const noiseGap = 500 * time.Microsecond
	var ratios []float64
	for attempt := 0; attempt < 40 && len(ratios) < 5; attempt++ {
		// Slot tid is written by worker tid only and read after Wait.
		var first, last [2]time.Time
		var paused [2]bool
		l, err := reg.Submit(LoopRequest{N: 400, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 1},
			Body: func(tid int, _, _ int64) {
				start := time.Now()
				if first[tid].IsZero() {
					first[tid] = start
				} else if start.Sub(last[tid]) > noiseGap {
					paused[tid] = true
				}
				last[tid] = start
				for time.Since(start) < 50*time.Microsecond {
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		iters := l.Wait().Iters
		apart := func(a, b time.Time) bool { return a.Sub(b) > noiseGap || b.Sub(a) > noiseGap }
		if paused[0] || paused[1] || apart(first[0], first[1]) || apart(last[0], last[1]) {
			continue
		}
		ratios = append(ratios, float64(iters[0])/float64(iters[1]))
	}
	if len(ratios) < 5 {
		t.Skipf("only %d of 40 loops ran undisturbed; the host is too busy to judge the throttle", len(ratios))
	}
	if ratio, _ := stats.Percentile(ratios, 50); math.Abs(ratio-want) > 0.15*want {
		t.Errorf("big/small iterations, median of %v = %.3f, want %.3f within 15%%", ratios, ratio, want)
	}
}

// TestRegistryClockFreeDrain runs AID schedules on unobserved fleets long
// enough that the workers' drains pass 64 chunks, so an unthrottled worker
// asks core.ReadsClock mid-burst, is told no, and serves the rest of its
// drain without reading the clock. Every loop must cover each iteration
// exactly once.
//
// Both run on the benchmark's 1B+1S fleet with 1 us bodies. When
// aid-hybrid,80,1 releases, both threads must be past their last sampling
// point and the SF estimate published. aid-dynamic,1,256's Major chunk makes
// its dynamic(1) tail long enough to be asked about, and the loop must have
// switched to that tail.
func TestRegistryClockFreeDrain(t *testing.T) {
	for _, sched := range []string{"aid-hybrid,80,1", "aid-dynamic,1,256"} {
		s, err := core.ParseSchedule(sched)
		if err != nil {
			t.Fatal(err)
		}
		reg := newFleet1B1S(t)
		const n, loops = 20000, 3
		for loop := 0; loop < loops; loop++ {
			covered := make([]atomic.Int32, n)
			l, err := reg.Submit(LoopRequest{N: n, Schedule: s, Body: func(_ int, lo, hi int64) {
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
					for start := time.Now(); time.Since(start) < time.Microsecond; {
					}
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			stats := l.Wait()
			for i := range covered {
				if got := covered[i].Load(); got != 1 {
					t.Fatalf("%s, loop %d: iteration %d covered %d times", sched, loop, i, got)
				}
			}
			// The loop's scheduler is the free list's newest entry until the
			// next Submit re-arms it.
			reg.mu.Lock()
			switch a := reg.free[len(reg.free)-1].sched.(type) {
			case *core.AIDHybrid:
				if len(stats.SFEstimate) != 2 {
					t.Errorf("%s, loop %d: SFEstimate = %v, want one entry per core type", sched, loop, stats.SFEstimate)
				}
				for tid := 0; tid < reg.NThreads(); tid++ {
					if core.ReadsClock(a, tid) {
						t.Errorf("%s, loop %d: thread %d never got past its last sampling point", sched, loop, tid)
					}
				}
			case *core.AIDDynamic:
				if !a.InTail() {
					t.Errorf("%s, loop %d: never switched to its dynamic(1) tail", sched, loop)
				}
			}
			reg.mu.Unlock()
		}
		reg.Close()
	}
}

// newFleet1B1S returns a registry on Platform A cut down to one core of each
// type: the benchmark's two-worker fleet.
func newFleet1B1S(t *testing.T) *Registry {
	t.Helper()
	a := amp.PlatformA()
	clusters := append([]amp.Cluster(nil), a.Clusters...)
	for i := range clusters {
		clusters[i].NumCores = 1
	}
	pl, err := amp.New("A-1B1S", clusters, a.Overhead)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(RegistryConfig{Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestRegistrySubmitAllocs pins what one Submit+Wait costs once the fleet
// has released a loop of the same schedule: its scheduler, pool, cells and
// retirement flags come off the free list, so what is left is the handle,
// its done channel, the default name, the published Iters and, for the AID
// schedules, the final SF table: 4 to 5 objects at any loop ID, so the IDs
// here start at 2^40, where formatting the default name must still cost one
// allocation. Building a scheduler per Submit cost 8 (static) to 25
// (aid-dynamic), so the bound of 5 catches any schedule falling back to
// construction, and any allocation the admission path grows. (AllocsPerRun
// rounds down.)
func TestRegistrySubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg := newFleet1B1S(t)
	defer reg.Close()
	reg.mu.Lock()
	reg.nextID = 1 << 40
	reg.mu.Unlock()
	var sink atomic.Int64
	body := func(_ int, lo, hi int64) { sink.Add(hi - lo) }
	for _, text := range []string{"static", "dynamic,16", "guided", "aid-static",
		"aid-hybrid,80,4", "aid-dynamic,1,5", "work-steal"} {
		s, err := core.ParseSchedule(text)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			l, err := reg.Submit(LoopRequest{N: 2048, Schedule: s, Body: body})
			if err != nil {
				t.Fatal(err)
			}
			l.Wait()
		}
		run() // warm: the free list now holds this schedule's scheduler
		got := testing.AllocsPerRun(20, run)
		t.Logf("%s: %.1f objects per Submit+Wait", text, got)
		if got > 5 {
			t.Errorf("%s: Submit+Wait allocated %.1f objects, want <= 5", text, got)
		}
	}
}

// TestRegistrySteadyStateAllocs pins the allocation-free hot path end to
// end: with the fleet warm (scratch grown, policy cursors populated, the
// free list holding both schedules), a multi-tenant run of tens of
// thousands of chunks may only allocate the per-submission constants (loop
// handles, done channels, published stats) — if the per-chunk path (claim,
// serve, pick) allocates, the delta explodes past the threshold and this
// test fails make ci.
func TestRegistrySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg, err := NewRegistry(RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	var sink atomic.Int64
	run := func(n int64) {
		a, err := reg.Submit(LoopRequest{N: n, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 4},
			Body: func(_ int, lo, hi int64) { sink.Add(hi - lo) }})
		if err != nil {
			t.Fatal(err)
		}
		b, err := reg.Submit(LoopRequest{N: n, Schedule: core.Schedule{Kind: core.KindAIDHybrid, Chunk: 1},
			Body: func(_ int, lo, hi int64) { sink.Add(hi - lo) }})
		if err != nil {
			t.Fatal(err)
		}
		a.Wait()
		b.Wait()
	}
	run(50000) // warm: scratch growth, policy maps, timer setup

	const n = 100000 // ~25k dynamic chunks + ~100k hybrid chunks per run
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(n)
	runtime.ReadMemStats(&m1)
	delta := m1.Mallocs - m0.Mallocs
	// Submission constants are about ten objects; 125k chunks at even one
	// alloc each would be 10000x that. The threshold splits the difference
	// conservatively.
	if delta > 4000 {
		t.Errorf("steady-state run of ~125k chunks allocated %d objects, want < 4000 (per-chunk path must not allocate)", delta)
	}
	if got := sink.Load(); got != 2*50000+2*n {
		t.Fatalf("covered %d iterations, want %d", got, 2*50000+2*n)
	}
}
