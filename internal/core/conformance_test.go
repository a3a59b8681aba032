package core

import (
	"fmt"
	"math"
	"testing"
)

// conformanceInfo builds a LoopInfo with big threads first (the BS binding
// convention all AID variants assume) on a two-type platform. small may be
// 0: the platform still reports two core types, exercising empty shards.
func conformanceInfo(ni int64, big, small int) LoopInfo {
	return LoopInfo{
		NI:       ni,
		NThreads: big + small,
		NumTypes: 2,
		TypeOf: func(tid int) int {
			if tid < big {
				return 0
			}
			return 1
		},
	}
}

// conformanceSchedulers enumerates every scheduling method under test, each
// built fresh per loop (Scheduler instances are single use).
func conformanceSchedulers(t *testing.T, info LoopInfo) map[string]Scheduler {
	t.Helper()
	mk := map[string]Scheduler{}
	add := func(name string, s Scheduler, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		mk[name] = s
	}
	st, err := NewStatic(info)
	add("static", st, err)
	sc, err := NewStaticChunked(info, 3)
	add("static-chunked", sc, err)
	dy, err := NewDynamic(info, 1)
	add("dynamic", dy, err)
	dy4, err := NewDynamic(info, 4)
	add("dynamic-4", dy4, err)
	gu, err := NewGuided(info, 1)
	add("guided", gu, err)
	as, err := NewAIDStatic(info, 1)
	add("aid-static", as, err)
	offSF := make([]float64, info.NumTypes)
	for i := range offSF {
		offSF[i] = float64(info.NumTypes - i)
	}
	ao, err := NewAIDStaticOffline(info, 1, offSF)
	add("aid-static-offline", ao, err)
	ah, err := NewAIDHybrid(info, 1, 0.8)
	add("aid-hybrid", ah, err)
	ad, err := NewAIDDynamic(info, 1, 5)
	add("aid-dynamic", ad, err)
	wsl, err := NewWorkSteal(info, 2)
	add("work-steal", wsl, err)
	// The largest chunks the GOOMP_SCHEDULE grammar accepts: every size sum
	// and product on the claim paths must saturate, not wrap.
	const huge = math.MaxInt64
	scm, err := NewStaticChunked(info, huge)
	add("static-chunked-max", scm, err)
	dym, err := NewDynamic(info, huge)
	add("dynamic-max", dym, err)
	gum, err := NewGuided(info, huge)
	add("guided-max", gum, err)
	asm, err := NewAIDStatic(info, huge)
	add("aid-static-max", asm, err)
	ahm, err := NewAIDHybrid(info, huge, 0.8)
	add("aid-hybrid-max", ahm, err)
	adm, err := NewAIDDynamic(info, huge, huge)
	add("aid-dynamic-max", adm, err)
	return mk
}

// TestSchedulerConformance is the cross-method conformance harness: every
// scheduler must cover each iteration of the loop exactly once — no loss,
// no duplication — across trip counts from degenerate (0, 1, fewer
// iterations than threads) through a prime count that defeats every
// divisibility assumption, up to a million iterations, and across thread
// mixes from all-big to heavily small-skewed. virtualExec asserts the
// exactly-once property and range sanity on every assignment.
func TestSchedulerConformance(t *testing.T) {
	bigNI := int64(1_000_000)
	if testing.Short() {
		bigNI = 100_000
	}
	mixes := []struct {
		name       string
		big, small int
	}{
		{"1B+0S", 1, 0},
		{"2B+2S", 2, 2},
		{"1B+7S", 1, 7},
	}
	for _, mix := range mixes {
		nt := mix.big + mix.small
		trips := []int64{0, 1, int64(nt) - 1, 10007, bigNI}
		for _, ni := range trips {
			if ni < 0 {
				continue // 1B+0S has no "fewer than threads" case
			}
			info := conformanceInfo(ni, mix.big, mix.small)
			for name, s := range conformanceSchedulers(t, info) {
				t.Run(fmt.Sprintf("%s/ni=%d/%s", mix.name, ni, name), func(t *testing.T) {
					counts, _ := virtualExec(t, s, info, []int64{100, 300})
					var total int64
					for _, c := range counts {
						total += c
					}
					if total != ni {
						t.Fatalf("covered %d of %d iterations", total, ni)
					}
				})
			}
		}
	}
}

// TestMultiTenantConformance is the multi-tenant harness: K concurrent
// loops — mixed trip counts {0, 1, prime, 1e6} and mixed schedulers, each
// with its own Scheduler instance — share one virtual fleet of workers.
// Each worker round-robins its Next calls across the tenants that have not
// yet retired it, modeling the multi-loop registry's interleaving at the
// scheduler level. The harness verifies, per tenant: exactly-once
// iteration coverage, that coverage is already complete at the moment the
// tenant's barrier releases (all workers retired), and that barriers are
// independent — degenerate tenants release while the million-iteration
// tenants still hold workers.
func TestMultiTenantConformance(t *testing.T) {
	bigNI := int64(1_000_000)
	if testing.Short() {
		bigNI = 100_000
	}
	info := func(ni int64) LoopInfo { return conformanceInfo(ni, 2, 2) }
	nthreads := info(0).NThreads

	type tenant struct {
		name    string
		ni      int64
		s       Scheduler
		seen    []int32
		total   int64
		active  []bool
		nactive int
		release int // barrier-release sequence number, -1 while running
	}
	mk := func(name string, ni int64, s Scheduler, err error) *tenant {
		if err != nil {
			t.Fatalf("building tenant %s: %v", name, err)
		}
		tn := &tenant{name: name, ni: ni, s: s, seen: make([]int32, ni),
			active: make([]bool, nthreads), nactive: nthreads, release: -1}
		for i := range tn.active {
			tn.active[i] = true
		}
		return tn
	}
	var tenants []*tenant
	add := func(name string, ni int64, s Scheduler, err error) {
		tenants = append(tenants, mk(name, ni, s, err))
	}
	{
		s, err := NewStatic(info(0))
		add("empty/static", 0, s, err)
	}
	{
		s, err := NewAIDStatic(info(1), 1)
		add("one/aid-static", 1, s, err)
	}
	{
		s, err := NewAIDDynamic(info(10007), 1, 5)
		add("prime/aid-dynamic", 10007, s, err)
	}
	{
		s, err := NewGuided(info(10007), 1)
		add("prime/guided", 10007, s, err)
	}
	{
		s, err := NewDynamic(info(bigNI), 7)
		add("big/dynamic", bigNI, s, err)
	}
	{
		s, err := NewAIDHybrid(info(bigNI), 1, 0.8)
		add("big/aid-hybrid", bigNI, s, err)
	}

	// Virtual multi-tenant fleet: per-worker clock plus a per-worker
	// round-robin cursor over its unretired tenants. Earliest clock acts.
	perIterNs := []int64{100, 300}
	clock := make([]int64, nthreads)
	cursor := make([]int, nthreads)
	remaining := make([]int, nthreads) // unretired tenants per worker
	for i := range remaining {
		remaining[i] = len(tenants)
	}
	releases := 0
	for {
		tid := -1
		for i := 0; i < nthreads; i++ {
			if remaining[i] > 0 && (tid == -1 || clock[i] < clock[tid]) {
				tid = i
			}
		}
		if tid == -1 {
			break
		}
		// Round-robin to this worker's next unretired tenant.
		var tn *tenant
		for range tenants {
			cursor[tid] = (cursor[tid] + 1) % len(tenants)
			if cand := tenants[cursor[tid]]; cand.active[tid] {
				tn = cand
				break
			}
		}
		asg, ok := tn.s.Next(tid, clock[tid])
		if !ok {
			tn.active[tid] = false
			tn.nactive--
			remaining[tid]--
			if tn.nactive == 0 {
				// Barrier release: coverage must already be complete.
				if tn.total != tn.ni {
					t.Fatalf("tenant %s released its barrier with %d of %d iterations done",
						tn.name, tn.total, tn.ni)
				}
				tn.release = releases
				releases++
			}
			continue
		}
		if asg.Lo < 0 || asg.Hi > tn.ni || asg.Lo >= asg.Hi {
			t.Fatalf("tenant %s: bad range [%d,%d)", tn.name, asg.Lo, asg.Hi)
		}
		for i := asg.Lo; i < asg.Hi; i++ {
			tn.seen[i]++
		}
		tn.total += asg.N()
		clock[tid] += asg.N() * perIterNs[info(0).TypeOf(tid)]
	}

	for _, tn := range tenants {
		if tn.release < 0 {
			t.Errorf("tenant %s never released its barrier", tn.name)
		}
		for i, c := range tn.seen {
			if c != 1 {
				t.Fatalf("tenant %s: iteration %d covered %d times", tn.name, i, c)
			}
		}
	}
	// Barrier independence: the degenerate tenants (0 and 1 iterations)
	// must release before every million-iteration tenant.
	for _, small := range tenants[:2] {
		for _, big := range tenants[4:] {
			if small.release > big.release {
				t.Errorf("tenant %s released after %s despite having %d iterations vs %d",
					small.name, big.name, small.ni, big.ni)
			}
		}
	}
}

// TestConformanceReversedTypeOrder runs the harness with small cores listed
// first (type 0 slowest is not the AID convention, but LoopInfo permits any
// mapping and coverage must be unconditional).
func TestConformanceReversedTypeOrder(t *testing.T) {
	info := LoopInfo{
		NI:       10007,
		NThreads: 4,
		NumTypes: 2,
		TypeOf:   func(tid int) int { return 1 - tid%2 },
	}
	for name, s := range conformanceSchedulers(t, info) {
		t.Run(name, func(t *testing.T) {
			virtualExec(t, s, info, []int64{300, 100})
		})
	}
}

// TestConformanceThreeTypes covers a three-core-type platform (the §4.2
// generalization), including a type with zero running threads.
func TestConformanceThreeTypes(t *testing.T) {
	info := LoopInfo{
		NI:       5003,
		NThreads: 5,
		NumTypes: 3,
		TypeOf: func(tid int) int {
			if tid < 2 {
				return 0
			}
			return 2 // type 1 has no threads: its shard must still drain
		},
	}
	for name, s := range conformanceSchedulers(t, info) {
		t.Run(name, func(t *testing.T) {
			virtualExec(t, s, info, []int64{100, 200, 300})
		})
	}
}
