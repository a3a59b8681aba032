package rt

import (
	"sync"
	"sync/atomic"
	"testing"

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
// before it takes the released loop's scheduler off the free list.
func TestRegistrySubmitAfterClose(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := LoopRequest{N: 10, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 4},
		Body: func(int, int64, int64) {}}
	l, err := reg.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	l.Wait()
	reg.Close()
	if _, err := reg.Submit(req); err == nil || err.Error() != "rt: registry is closed" {
		t.Errorf("Submit after Close: err = %v, want rt: registry is closed", err)
	}
	if len(reg.free) != 1 {
		t.Errorf("Submit after Close left %d free-list entries, want 1", len(reg.free))
	}
	reg.Close() // idempotent
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
// online SF estimate, like Team's.
func TestRegistrySFEstimateSurfaced(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	l, err := reg.Submit(LoopRequest{
		N:        8000,
		Schedule: core.Schedule{Kind: core.KindAIDStatic, OfflineSF: []float64{3, 1}},
		Body:     func(int, int64, int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := l.Wait()
	if stats.SchedulerName != "aid-static" {
		t.Errorf("SchedulerName = %q", stats.SchedulerName)
	}
	if len(stats.SFEstimate) != 2 || stats.SFEstimate[0] != 3 {
		t.Errorf("SFEstimate = %v, want offline [3 1]", stats.SFEstimate)
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
