package rt

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fair"
)

// registryTenant describes one loop of the multi-tenant conformance run.
type registryTenant struct {
	name  string
	ni    int64
	sched core.Schedule
}

// registryTenants mixes trip counts {0, 1, prime, big} with schedulers
// from every family, mirroring the core-level harness on the real fleet.
func registryTenants(big int64) []registryTenant {
	return []registryTenant{
		{"empty/static", 0, core.Schedule{Kind: core.KindStatic}},
		{"one/aid-static", 1, core.Schedule{Kind: core.KindAIDStatic}},
		{"prime/aid-dynamic", 10007, core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}},
		{"prime/guided", 10007, core.Schedule{Kind: core.KindGuided}},
		{"big/dynamic", big, core.Schedule{Kind: core.KindDynamic, Chunk: 16}},
		{"big/aid-hybrid", big, core.Schedule{Kind: core.KindAIDHybrid, Chunk: 4}},
	}
}

// TestRegistryMultiTenantConformance submits K=6 concurrent loops (mixed
// trip counts and schedulers) to one shared fleet and verifies per-loop
// exactly-once coverage, per-loop totals in the published stats, and
// independent barrier release for every tenant.
func TestRegistryMultiTenantConformance(t *testing.T) {
	big := int64(200_000)
	if testing.Short() {
		big = 40_000
	}
	reg, err := NewRegistry(RegistryConfig{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	tenants := registryTenants(big)
	covered := make([][]atomic.Int32, len(tenants))
	loops := make([]*Loop, len(tenants))
	for i, tn := range tenants {
		covered[i] = make([]atomic.Int32, tn.ni)
		cov := covered[i]
		loops[i], err = reg.Submit(LoopRequest{
			N:        tn.ni,
			Schedule: tn.sched,
			Body: func(_ int, lo, hi int64) {
				for j := lo; j < hi; j++ {
					cov[j].Add(1)
				}
			},
		})
		if err != nil {
			t.Fatalf("submitting %s: %v", tn.name, err)
		}
	}
	for i, tn := range tenants {
		stats := loops[i].Wait()
		var total int64
		for _, n := range stats.Iters {
			total += n
		}
		if total != tn.ni {
			t.Errorf("tenant %s: stats report %d of %d iterations", tn.name, total, tn.ni)
		}
		for j := range covered[i] {
			if c := covered[i][j].Load(); c != 1 {
				t.Fatalf("tenant %s: iteration %d covered %d times", tn.name, j, c)
			}
		}
		if loops[i].Latency() <= 0 {
			t.Errorf("tenant %s: non-positive latency %v", tn.name, loops[i].Latency())
		}
	}
}

// TestRegistryBarrierIndependence verifies per-loop barrier accounting: a
// small loop submitted behind a large one releases its own barrier while
// the large loop is still executing. Two gates in the long body hold the
// large loop open, so the outcome does not depend on how fast chunks go:
// every worker waits in its first long chunk until the short loop is
// admitted, and a worker that has since retired from the short loop parks in
// its next long chunk until the test has checked the barriers. (A worker
// must not park before its own retirement: the short barrier needs every
// worker's.) In between, round-robin turns of 8 let each worker through at
// most a dozen long chunks, of 5000.
func TestRegistryBarrierIndependence(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	admitted, checked := make(chan struct{}), make(chan struct{})
	var admitOnce, checkOnce sync.Once
	admit := func() { admitOnce.Do(func() { close(admitted) }) }
	check := func() { checkOnce.Do(func() { close(checked) }) }
	// Runs before Close on every exit path; Close would wait on held workers.
	defer func() { admit(); check() }()

	const longN, shortN = 20_000, 64
	var short *Loop // written before admitted closes, read by the body after
	var longIters atomic.Int64
	long, err := reg.Submit(LoopRequest{
		N:        longN,
		Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 4},
		Body: func(tid int, lo, hi int64) {
			longIters.Add(hi - lo)
			<-admitted
			if short == nil {
				return // the test bailed out before submitting
			}
			reg.mu.Lock()
			retired := short.sched == nil || reg.fleet.Retired(short.slot, tid) // nil: released
			reg.mu.Unlock()
			if retired {
				<-checked
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var shortIters atomic.Int64
	short, err = reg.Submit(LoopRequest{
		N:        shortN,
		Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 4},
		Weight:   4,
		Body:     func(_ int, lo, hi int64) { shortIters.Add(hi - lo) },
	})
	if err != nil {
		t.Fatal(err)
	}
	admit()
	short.Wait()
	if got := shortIters.Load(); got != shortN {
		t.Fatalf("short loop covered %d of %d", got, shortN)
	}
	select {
	case <-long.Done():
		t.Error("long loop's barrier released with every worker parked inside it")
	default:
		// Expected: the short loop's barrier released on its own while the
		// long loop still holds the fleet.
	}
	check()
	long.Wait()
	if got := longIters.Load(); got != longN {
		t.Fatalf("long loop covered %d of %d", got, longN)
	}
}

// TestRegistryFCFSPolicy runs two loops under the run-to-completion
// baseline policy: coverage must hold and the first submission must not
// finish after the second (head-of-line order).
func TestRegistryFCFSPolicy(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4, Policy: fair.NewFCFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if reg.Policy().Name() != "fcfs" {
		t.Errorf("Policy().Name() = %q", reg.Policy().Name())
	}
	var a, b atomic.Int64
	la, err := reg.Submit(LoopRequest{N: 50_000, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8},
		Body: func(_ int, lo, hi int64) { a.Add(hi - lo) }})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := reg.Submit(LoopRequest{N: 50_000, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8},
		Body: func(_ int, lo, hi int64) { b.Add(hi - lo) }})
	if err != nil {
		t.Fatal(err)
	}
	la.Wait()
	lb.Wait()
	if a.Load() != 50_000 || b.Load() != 50_000 {
		t.Errorf("coverage under FCFS: %d, %d of 50000", a.Load(), b.Load())
	}
}

func TestRegistrySubmitValidation(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	body := func(int, int64, int64) {}
	if _, err := reg.Submit(LoopRequest{N: -1, Body: body}); err == nil {
		t.Error("negative trip count accepted")
	}
	if _, err := reg.Submit(LoopRequest{N: 10}); err == nil {
		t.Error("nil body accepted")
	}
	if _, err := reg.Submit(LoopRequest{N: 10, Weight: -2, Body: body}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := reg.Submit(LoopRequest{N: 10, Schedule: core.Schedule{Kind: core.Kind(99)}, Body: body}); err == nil {
		t.Error("unknown schedule kind accepted")
	}
	l, err := reg.Submit(LoopRequest{N: 10, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	if l.Weight() != 1 {
		t.Errorf("default weight = %d, want 1", l.Weight())
	}
	l.Wait()
}

// TestRegistrySubmitAfterClose refuses a submission to a closed registry
// before it takes the released loop's ledger or its spare scheduler.
func TestRegistrySubmitAfterClose(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := LoopRequest{N: 10, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 4},
		Body: func(int, int64, int64) {}}
	_, released := runHolding(t, reg, req)
	reg.Close()
	if _, err := reg.Submit(req); err == nil || err.Error() != "rt: registry is closed" {
		t.Errorf("Submit after Close: err = %v, want rt: registry is closed", err)
	}
	if len(reg.ledgers) != 1 {
		t.Errorf("Submit after Close left %d spare ledgers, want 1", len(reg.ledgers))
	}
	// The released scheduler is its key's newest spare, which the next build takes.
	if s, err := req.Schedule.Factory()(reg.loopInfo(10)); err != nil || s != released {
		t.Errorf("Submit after Close took the released loop's scheduler from the spares (err %v)", err)
	}
	reg.Close() // idempotent
}

// runHolding runs req, a loop of at least one iteration, on reg, and returns
// it, released, with the scheduler it ran under, which its release recycled.
// The loop's body waits until the scheduler has been read.
func runHolding(t *testing.T, reg *Registry, req LoopRequest) (*Loop, core.Scheduler) {
	t.Helper()
	gate, body := make(chan struct{}), req.Body
	req.Body = func(tid int, lo, hi int64) {
		<-gate
		body(tid, lo, hi)
	}
	l, err := reg.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	s := l.sched
	reg.mu.Unlock()
	close(gate)
	l.Wait()
	return l, s
}

// TestRegistryCloseDrains submits loops and closes immediately: Close must
// block until every admitted loop has released its barrier.
func TestRegistryCloseDrains(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int64
	loops := make([]*Loop, 5)
	for i := range loops {
		loops[i], err = reg.Submit(LoopRequest{N: 10_000, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 16},
			Body: func(_ int, lo, hi int64) { total.Add(hi - lo) }})
		if err != nil {
			t.Fatal(err)
		}
	}
	reg.Close()
	for i, l := range loops {
		select {
		case <-l.Done():
		default:
			t.Fatalf("loop %d not drained by Close", i)
		}
	}
	if total.Load() != 50_000 {
		t.Errorf("drained %d of 50000 iterations", total.Load())
	}
}

// TestRegistryZeroTripCount: an empty loop's barrier must still release
// (every worker observes the drained pool exactly once).
func TestRegistryZeroTripCount(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ran := false
	l, err := reg.Submit(LoopRequest{N: 0, Body: func(int, int64, int64) { ran = true }})
	if err != nil {
		t.Fatal(err)
	}
	stats := l.Wait()
	if ran {
		t.Error("body ran for an empty loop")
	}
	for tid, n := range stats.Iters {
		if n != 0 {
			t.Errorf("thread %d reports %d iterations for an empty loop", tid, n)
		}
	}
}

// TestRegistrySFEstimateSurfaced checks the published stats carry the AID
// online SF estimate, like Team's: one entry per core type. The estimate
// exists once every worker has timed a sample, so the fleet is two workers
// and each iteration spins for 50 us: the big worker alone takes 10 ms to
// drain the loop, time enough for the small one to take its sample.
func TestRegistrySFEstimateSurfaced(t *testing.T) {
	reg := newFleet1B1S(t)
	defer reg.Close()
	l, err := reg.Submit(LoopRequest{
		N:        200,
		Schedule: core.Schedule{Kind: core.KindAIDStatic},
		Body: func(_ int, lo, hi int64) {
			for start := time.Now(); time.Since(start) < time.Duration(hi-lo)*50*time.Microsecond; {
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := l.Wait()
	if stats.SchedulerName != "aid-static" {
		t.Errorf("SchedulerName = %q", stats.SchedulerName)
	}
	if len(stats.SFEstimate) != 2 || !(stats.SFEstimate[0] > 0 && stats.SFEstimate[1] > 0) {
		t.Errorf("SFEstimate = %v, want two positive entries", stats.SFEstimate)
	}
}

func TestRegistryConfigValidation(t *testing.T) {
	if _, err := NewRegistry(RegistryConfig{NThreads: -1}); err == nil {
		t.Error("negative fleet size accepted")
	}
	if _, err := NewRegistry(RegistryConfig{NThreads: 99}); err == nil {
		t.Error("oversubscribed fleet accepted")
	}
	reg, err := NewRegistry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if reg.NThreads() != 8 {
		t.Errorf("default fleet size = %d, want 8 (Platform A cores)", reg.NThreads())
	}
	if reg.Slowdown(0) != 1 {
		t.Errorf("big-core slowdown = %v, want 1", reg.Slowdown(0))
	}
	if reg.Policy().Name() != "wrr" {
		t.Errorf("default policy = %q, want wrr", reg.Policy().Name())
	}
}

// TestRegistryFreeListKeyIsDefaultedSchedule: core's spares find a
// released scheduler by the defaulted schedule, so a schedule that spells out
// a default re-arms the scheduler of one that leaves it unset, and one that
// differs in a parameter builds its own.
func TestRegistryFreeListKeyIsDefaultedSchedule(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// run submits one loop and returns the scheduler its release recycled.
	run := func(text string) core.Scheduler {
		s, err := core.ParseSchedule(text)
		if err != nil {
			t.Fatal(err)
		}
		_, held := runHolding(t, reg, LoopRequest{N: 100, Schedule: s, Body: func(int, int64, int64) {}})
		return held
	}
	for _, c := range []struct{ first, same, other string }{
		{"dynamic", "dynamic,1", "dynamic,2"},
		{"aid-hybrid", "aid-hybrid,80,1", "aid-hybrid,80,2"},
	} {
		pooled := run(c.first)
		if got := run(c.same); got != pooled {
			t.Errorf("%s built a scheduler instead of re-arming the one %s released", c.same, c.first)
		}
		if got := run(c.other); got == pooled {
			t.Errorf("%s re-armed the scheduler %s released", c.other, c.first)
		}
	}
}

// TestRegistrySparesSurviveGC: a schedule keeps as many spares as it had
// loops in flight at once, and a collection takes none of them. Six gated
// loops of one schedule run at once on a 2-worker registry; once they have
// released and two collections have passed, each of the next six re-arms one
// of their schedulers.
func TestRegistrySparesSurviveGC(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s, err := core.ParseSchedule("dynamic,7")
	if err != nil {
		t.Fatal(err)
	}
	// batch runs six loops at once and returns the schedulers they ran
	// under, which their releases recycled.
	batch := func() []core.Scheduler {
		gate := make(chan struct{})
		var loops []*Loop
		var held []core.Scheduler
		for i := 0; i < 6; i++ {
			l, err := reg.Submit(LoopRequest{N: 100, Schedule: s, Body: func(int, int64, int64) { <-gate }})
			if err != nil {
				t.Fatal(err)
			}
			reg.mu.Lock()
			held = append(held, l.sched)
			reg.mu.Unlock()
			loops = append(loops, l)
		}
		close(gate)
		for _, l := range loops {
			l.Wait()
		}
		return held
	}
	first := batch()
	runtime.GC()
	runtime.GC()
	rearmed := 0
	for _, s := range batch() {
		if slices.Contains(first, s) {
			rearmed++
		}
	}
	if rearmed != 6 {
		t.Errorf("after two collections, %d of 6 loops re-armed a scheduler the first 6 released, want 6", rearmed)
	}
}

// TestRegistryRecycleKeepsNoLoop: a released loop's ledger stays with the
// registry and its scheduler goes back to core's spares, and neither keeps
// anything of the loop. While the test holds the two schedulers, a captured
// loop's tapes, a metered loop's counters, an AID loop, whose scheduler had a
// phase observer, and, once closed, the registry's TypeOf mapping are all
// collected.
func TestRegistryRecycleKeepsNoLoop(t *testing.T) {
	var mu sync.Mutex
	alive := map[string]bool{}
	watch := func(name string, obj any) {
		mu.Lock()
		alive[name] = true
		mu.Unlock()
		runtime.SetFinalizer(obj, func(any) {
			mu.Lock()
			delete(alive, name)
			mu.Unlock()
		})
	}
	var held []core.Scheduler
	func() {
		reg, err := NewRegistry(RegistryConfig{NThreads: 2, Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		// Both loops are in flight at once, so each has a ledger of its own.
		gate := make(chan struct{})
		var loops []*Loop
		for _, text := range []string{"dynamic,1", "aid-hybrid,80,1"} {
			s, err := core.ParseSchedule(text)
			if err != nil {
				t.Fatal(err)
			}
			l, err := reg.Submit(LoopRequest{N: 20_000, Schedule: s, Capture: true, Body: func(int, int64, int64) { <-gate }})
			if err != nil {
				t.Fatal(err)
			}
			reg.mu.Lock()
			held = append(held, l.sched)
			reg.mu.Unlock()
			loops = append(loops, l)
		}
		close(gate)
		for i, l := range loops {
			l.Wait()
			watch(l.schedule.String()+" tapes", &l.capture[0])
			watch(l.schedule.String()+" metrics", l.metrics)
			watch(l.schedule.String()+" loop", l)
			loops[i] = nil
		}
		reg.mu.Lock()
		nledgers := len(reg.ledgers)
		reg.mu.Unlock()
		if nledgers != 2 {
			t.Fatalf("the registry holds %d spare ledgers after two released loops, want 2", nledgers)
		}
		reg.Close()
		// Not the Registry: its sync.Cond points back into it, and a
		// finalizer on a cycle need not run. Its thread types are what the
		// loops' TypeOf mapping reads.
		watch("registry's thread types", &reg.types[0])
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	mu.Lock()
	defer mu.Unlock()
	for name := range alive {
		t.Errorf("the %s of a released loop was not collected", name)
	}
	runtime.KeepAlive(held)
}
