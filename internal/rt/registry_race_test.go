package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fair"
)

// stressSchedules cycles every pool-backed scheduling family through the
// stress runs, mirroring internal/core/race_test.go at the registry level.
var stressSchedules = []core.Schedule{
	{Kind: core.KindDynamic, Chunk: 3},
	{Kind: core.KindGuided},
	{Kind: core.KindAIDStatic},
	{Kind: core.KindAIDHybrid},
	{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5},
	{Kind: core.KindWorkSteal, Chunk: 2},
}

// TestRegistrySubmitStress hammers one fleet with concurrent submitters
// across a GOMAXPROCS sweep: every submission mixes trip counts (including
// the degenerate 0 and 1) with a different scheduler and weight, waits for
// its own barrier and verifies exactly-once coverage. Run under -race this
// exercises the control plane (submission, picking, retirement, barrier
// release) concurrently with the lock-free scheduler hot paths.
func TestRegistrySubmitStress(t *testing.T) {
	trips := []int64{0, 1, 977, 4096, 10007}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			reg, err := NewRegistry(RegistryConfig{NThreads: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			const submitters = 4
			loopsEach := 6
			if testing.Short() {
				loopsEach = 3
			}
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for j := 0; j < loopsEach; j++ {
						ni := trips[(s+j)%len(trips)]
						sched := stressSchedules[(s*loopsEach+j)%len(stressSchedules)]
						covered := make([]atomic.Int32, ni)
						l, err := reg.Submit(LoopRequest{
							N:        ni,
							Schedule: sched,
							Weight:   1 + (s+j)%3,
							Body: func(_ int, lo, hi int64) {
								for i := lo; i < hi; i++ {
									covered[i].Add(1)
								}
							},
						})
						if err != nil {
							t.Errorf("submitter %d loop %d: %v", s, j, err)
							return
						}
						stats := l.Wait()
						var total int64
						for _, n := range stats.Iters {
							total += n
						}
						if total != ni {
							t.Errorf("submitter %d loop %d (%s): stats cover %d of %d",
								s, j, sched, total, ni)
							return
						}
						for i := range covered {
							if c := covered[i].Load(); c != 1 {
								t.Errorf("submitter %d loop %d (%s): iteration %d covered %d times",
									s, j, sched, i, c)
								return
							}
						}
					}
				}(s)
			}
			wg.Wait()
		})
	}
}

// TestRegistryTeardownRace races Close against in-flight execution and
// further Submit attempts: submissions that beat Close must complete with
// full coverage before Close returns; submissions that lose must fail
// cleanly with the closed error.
func TestRegistryTeardownRace(t *testing.T) {
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			reg, err := NewRegistry(RegistryConfig{NThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			type admitted struct {
				l     *Loop
				total *atomic.Int64
				ni    int64
			}
			var ok []admitted
			var wg sync.WaitGroup
			for s := 0; s < 4; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for j := 0; j < 8; j++ {
						var total atomic.Int64
						ni := int64(500 + 100*j)
						l, err := reg.Submit(LoopRequest{
							N:        ni,
							Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8},
							Body:     func(_ int, lo, hi int64) { total.Add(hi - lo) },
						})
						if err != nil {
							return // lost the race to Close: acceptable
						}
						mu.Lock()
						ok = append(ok, admitted{l, &total, ni})
						mu.Unlock()
					}
				}(s)
			}
			reg.Close()
			wg.Wait()
			mu.Lock()
			defer mu.Unlock()
			for i, a := range ok {
				select {
				case <-a.l.Done():
				default:
					t.Fatalf("admitted loop %d not drained by Close", i)
				}
				if got := a.total.Load(); got != a.ni {
					t.Errorf("admitted loop %d covered %d of %d", i, got, a.ni)
				}
			}
		})
	}
}

// TestRegistryRecycleConcurrent drives the free list from four submitters
// at once, each cycling 200 loops through aid-dynamic,1,5, aid-static and
// dynamic,16 with trip counts from 0 up, while a poller checks, under the
// registry lock, that no two live loops share a scheduler. Every loop must
// cover its iterations exactly once, and schedulers must actually be
// re-armed.
func TestRegistryRecycleConcurrent(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	scheds := []core.Schedule{
		{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5},
		{Kind: core.KindAIDStatic},
		{Kind: core.KindDynamic, Chunk: 16},
	}
	const submitters, loopsEach = 4, 200

	var (
		mu     sync.Mutex
		owner  = map[core.Scheduler]uint64{} // last loop seen holding each scheduler
		reused int
	)
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		var live []core.Scheduler
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.mu.Lock()
			live = live[:0]
			for _, l := range reg.slots {
				if l == nil {
					continue
				}
				for _, s := range live {
					if s == l.sched {
						t.Errorf("loop %d shares its scheduler with another live loop", l.id)
					}
				}
				live = append(live, l.sched)
			}
			reg.mu.Unlock()
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := 0; j < loopsEach; j++ {
				ni := int64((s*loopsEach + j) * 7 % 613)
				sched := scheds[j%len(scheds)]
				covered := make([]atomic.Int32, ni)
				l, err := reg.Submit(LoopRequest{N: ni, Schedule: sched,
					Body: func(_ int, lo, hi int64) {
						for i := lo; i < hi; i++ {
							covered[i].Add(1)
						}
					}})
				if err != nil {
					t.Errorf("submitter %d loop %d: %v", s, j, err)
					return
				}
				reg.mu.Lock()
				held := l.sched // nil if the loop has already released
				reg.mu.Unlock()
				mu.Lock()
				if held != nil {
					if _, seen := owner[held]; seen {
						reused++
					}
					owner[held] = l.ID()
				}
				mu.Unlock()
				l.Wait()
				for i := range covered {
					if c := covered[i].Load(); c != 1 {
						t.Errorf("submitter %d loop %d (%s): iteration %d covered %d times", s, j, sched, i, c)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	<-polled
	if reused == 0 {
		t.Error("no scheduler was re-armed for a later loop")
	}
}

// TestRegistryPolicySweepStress runs the multi-tenant conformance tenants
// under both shipped policies with real concurrency, so -race sees the
// policy-specific pick paths.
func TestRegistryPolicySweepStress(t *testing.T) {
	for _, mk := range []func() fair.Policy{
		func() fair.Policy { return fair.NewWeightedRoundRobin(0) },
		func() fair.Policy { return fair.NewFCFS() },
	} {
		policy := mk()
		t.Run(policy.Name(), func(t *testing.T) {
			reg, err := NewRegistry(RegistryConfig{NThreads: 8, Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			tenants := registryTenants(30_000)
			loops := make([]*Loop, len(tenants))
			totals := make([]atomic.Int64, len(tenants))
			for i, tn := range tenants {
				total := &totals[i]
				loops[i], err = reg.Submit(LoopRequest{N: tn.ni, Schedule: tn.sched,
					Body: func(_ int, lo, hi int64) { total.Add(hi - lo) }})
				if err != nil {
					t.Fatalf("submitting %s: %v", tn.name, err)
				}
			}
			for i, tn := range tenants {
				loops[i].Wait()
				if got := totals[i].Load(); got != tn.ni {
					t.Errorf("tenant %s covered %d of %d under %s", tn.name, got, tn.ni, policy.Name())
				}
			}
		})
	}
}
