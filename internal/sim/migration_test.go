package sim

import (
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
)

// migrationLoop is long enough that a mid-loop migration leaves many
// iterations to redistribute.
func migrationLoop() LoopSpec {
	return LoopSpec{
		Name:    "mig-loop",
		NI:      20000,
		Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.2},
		Cost:    UniformCost{PerIter: 80000},
	}
}

func aidDynFactory(info core.LoopInfo) (core.Scheduler, error) {
	return core.NewAIDDynamic(info, 1, 20)
}

// TestMigrationValidation: a migration of a thread the run does not have,
// or to a CPU the platform does not have, is refused, also one that would
// come due only after the loop has ended.
func TestMigrationValidation(t *testing.T) {
	cfg := baseCfg(amp.PlatformA(), 8, amp.BindBS, aidDynFactory)
	for _, m := range []Migration{
		{AtNs: 0, Tid: 0, ToCPU: 99},
		{AtNs: 0, Tid: 0, ToCPU: -1},
		{AtNs: 0, Tid: 8, ToCPU: 0},
		{AtNs: 0, Tid: -1, ToCPU: 0},
		{AtNs: 900_000_000_000, Tid: 0, ToCPU: 99},
		{AtNs: 900_000_000_000, Tid: 9, ToCPU: 0},
	} {
		cfg.Migrations = []Migration{m}
		if _, err := RunLoop(cfg, migrationLoop(), 0); err == nil {
			t.Errorf("migration %+v accepted", m)
		}
	}
}

func TestMigrationKeepsCoverage(t *testing.T) {
	// A big->small migration mid-loop must not lose or duplicate work under
	// any migratable scheduler.
	for _, f := range []SchedulerFactory{aidDynFactory, aidStaticFactory, dynamicFactory} {
		cfg := baseCfg(amp.PlatformA(), 8, amp.BindBS, f)
		// Thread 0 starts on CPU 7 (big); move it to CPU 0's cluster...
		// CPU 0 is occupied by thread 7, but the model allows sharing —
		// oversubscription is part of what the OS may do to us. Use CPU 1.
		cfg.Migrations = []Migration{{AtNs: 1_000_000, Tid: 0, ToCPU: 1}}
		r, err := RunLoop(cfg, migrationLoop(), 0)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, n := range r.Iters {
			total += n
		}
		if total != 20000 {
			t.Errorf("%s: covered %d iterations after migration, want 20000", r.SchedulerName, total)
		}
	}
}

func TestAIDDynamicAdaptsToMigration(t *testing.T) {
	// §4.3's motivation: with notification, AID-dynamic re-sizes the moved
	// thread's allotments. A thread demoted big->small must receive clearly
	// fewer iterations after the move than a thread that stayed big, and the
	// loop must stay reasonably balanced.
	pl := amp.PlatformA()
	loop := migrationLoop()

	cfgMig := baseCfg(pl, 8, amp.BindBS, aidDynFactory)
	cfgMig.Migrations = []Migration{{AtNs: 100_000, Tid: 0, ToCPU: 1}} // demote early
	rMig, err := RunLoop(cfgMig, loop, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Thread 1 stayed on a big core; thread 0 was demoted.
	if rMig.Iters[0] >= rMig.Iters[1] {
		t.Errorf("demoted thread got %d iterations, thread on big core got %d; want fewer",
			rMig.Iters[0], rMig.Iters[1])
	}
	// Balance: finish spread should stay moderate despite the migration.
	var minF, maxF = rMig.Finish[0], rMig.Finish[0]
	for _, f := range rMig.Finish[1:] {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if spread := float64(maxF-minF) / float64(maxF); spread > 0.15 {
		t.Errorf("AID-dynamic post-migration imbalance %.1f%%, want < 15%%", spread*100)
	}
}

func TestAIDStaticAdaptsToEarlyMigration(t *testing.T) {
	// AID-static observes a migration notification delivered during the
	// sampling phase (before its single final allotment): the demoted
	// thread's allotment is sized for its new, slower core type. A
	// migration *after* the allotment cannot be compensated by AID-static —
	// the paper suggests work stealing for that case — but the simulator
	// charges whole chunks at claim time (a worker's clock advances past a
	// granted chunk in one event; see the package comment), so the
	// post-allotment scenario is not observable at this granularity.
	pl := amp.PlatformA()
	cfg := baseCfg(pl, 8, amp.BindBS, aidStaticFactory)
	cfg.Migrations = []Migration{{AtNs: 50_000, Tid: 0, ToCPU: 1}} // demote during sampling
	r, err := RunLoop(cfg, migrationLoop(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Iters[0] >= r.Iters[1] {
		t.Errorf("demoted thread got %d iterations, big-core thread got %d; AID-static should size for the new type",
			r.Iters[0], r.Iters[1])
	}
}

func TestMigrationPromotionHelpsAIDDynamic(t *testing.T) {
	// The reverse direction: a small-core thread promoted to a big core
	// should end up executing more iterations than its small-core peers.
	pl := amp.PlatformA()
	cfg := baseCfg(pl, 8, amp.BindBS, aidDynFactory)
	// Thread 7 starts on CPU 0 (small); promote it to CPU 6 (big cluster).
	cfg.Migrations = []Migration{{AtNs: 100_000, Tid: 7, ToCPU: 6}}
	r, err := RunLoop(cfg, migrationLoop(), 0)
	if err != nil {
		t.Fatal(err)
	}
	small := float64(r.Iters[4]+r.Iters[5]+r.Iters[6]) / 3
	if float64(r.Iters[7]) <= small*1.2 {
		t.Errorf("promoted thread got %d iterations vs small-core average %.0f; want clearly more",
			r.Iters[7], small)
	}
}

func TestMigrationNoCrossClusterIsNoOp(t *testing.T) {
	// Moving a thread within the same cluster changes nothing observable.
	pl := amp.PlatformA()
	loop := migrationLoop()
	base := baseCfg(pl, 8, amp.BindBS, aidDynFactory)
	r0, err := RunLoop(base, loop, 0)
	if err != nil {
		t.Fatal(err)
	}
	mig := baseCfg(pl, 8, amp.BindBS, aidDynFactory)
	mig.Migrations = []Migration{{AtNs: 100_000, Tid: 0, ToCPU: 6}} // big -> big
	r1, err := RunLoop(mig, loop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r0.End != r1.End {
		t.Errorf("intra-cluster migration changed completion: %d vs %d", r0.End, r1.End)
	}
}

// migrateCounter counts the migration notifications a scheduler receives.
// Embedding the interface hides the wrapped scheduler's optional interfaces
// (SF estimates, phase events), which these tests do not need.
type migrateCounter struct {
	core.Scheduler
	calls []int // per tid
}

func (m *migrateCounter) Migrate(tid, newType int, nowNs int64) {
	m.calls[tid]++
	m.Scheduler.(core.Migratable).Migrate(tid, newType, nowNs)
}

// TestMultiLoopMigration injects cross-cluster migrations into a fleet: one
// reaches a worker mid-burst, one a worker parked between loops. Every loop
// keeps exactly-once coverage, and a migration is announced exactly once to
// every scheduler that has not yet retired the moved worker — the running
// loop and the ones still to arrive — and not to a loop already done with it.
func TestMultiLoopMigration(t *testing.T) {
	pl := amp.PlatformA()
	var scheds []*migrateCounter
	cfg := baseCfg(pl, 8, amp.BindBS, func(info core.LoopInfo) (core.Scheduler, error) {
		s, err := core.NewAIDDynamic(info, 1, 20)
		m := &migrateCounter{Scheduler: s, calls: make([]int, info.NThreads)}
		scheds = append(scheds, m)
		return m, err
	})
	const midBurst, parked = 1_000_000, 900_000_000
	cfg.Migrations = []Migration{
		{AtNs: midBurst, Tid: 0, ToCPU: 1}, // big -> small while "long" runs
		{AtNs: parked, Tid: 7, ToCPU: 6},   // small -> big while the fleet is quiet
	}
	mk := func(name string, ni, arrive int64) LoopSpec {
		s := migrationLoop()
		s.Name, s.NI, s.Arrive = name, ni, arrive
		return s
	}
	specs := []LoopSpec{
		mk("short", 8, 0),
		mk("long", 20000, 0),
		mk("late", 4000, 2_000_000),
		mk("after-quiet", 4000, 1_000_000_000),
	}
	rs, err := RunLoops(cfg, specs, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for li, r := range rs {
		if got := sumIters(r); got != specs[li].NI {
			t.Errorf("loop %q covered %d of %d iterations", specs[li].Name, got, specs[li].NI)
		}
	}
	// The scenario is what the comment says it is.
	if rs[0].Finish[0] >= midBurst || rs[1].End <= midBurst {
		t.Fatalf("first migration not mid-run: short retired tid 0 at %d, long ended %d", rs[0].Finish[0], rs[1].End)
	}
	if rs[2].End >= parked {
		t.Fatalf("second migration not in the quiet gap: late ended %d", rs[2].End)
	}
	want := [][2]int{{0, 0}, {1, 0}, {1, 0}, {1, 1}} // per loop: calls for tid 0, tid 7
	for li, m := range scheds {
		if got := [2]int{m.calls[0], m.calls[7]}; got != want[li] {
			t.Errorf("loop %q: migrations announced (tid 0, tid 7) = %v, want %v", specs[li].Name, got, want[li])
		}
	}
}

// engagedProbe is a chunk-1 self-scheduler that keeps its own account of who
// is on its pool line: a worker from its first call (from the fork, in a
// team) to its retiring call, typed by binding and by the migrations it is
// told of. Every call is a home access, so the engine must charge it for
// the other engaged workers of the caller's current type; wantNs sums that
// expectation per worker at one ns per contender.
type engagedProbe struct {
	ni, next int64
	typ      []int
	on       []bool
	wantNs   []int64
}

func (p *engagedProbe) Name() string { return "engaged-probe" }

func (p *engagedProbe) Next(tid int, _ int64) (core.Assign, bool) {
	p.on[tid] = true
	for w, on := range p.on {
		if on && w != tid && p.typ[w] == p.typ[tid] {
			p.wantNs[tid]++
		}
	}
	asg := core.Assign{AssignCost: core.AssignCost{Origin: int32(p.typ[tid]), PoolAccesses: 1}}
	if p.next == p.ni {
		p.on[tid] = false
		return asg, false
	}
	asg.Lo, asg.Hi = p.next, p.next+1
	p.next++
	return asg, true
}

func (p *engagedProbe) Migrate(tid, newType int, _ int64) { p.typ[tid] = newType }

// TestEngagedFollowsMigration pins the contention population in both modes
// against the probe's reference account, with workers changing core type
// mid-run in both directions: a worker's slot on the pool lines moves with
// it (a slot left behind would overcharge its old cluster for the rest of
// the loop and drive its new cluster's count below the truth), and a team is
// engaged from the fork while a fleet worker is only from its first pick.
func TestEngagedFollowsMigration(t *testing.T) {
	for _, team := range []bool{true, false} {
		pl := amp.PlatformA()
		pl.Overhead = amp.Overheads{ContentionNs: 1} // contenders are the only charge
		var probe *engagedProbe
		cfg := baseCfg(pl, 8, amp.BindBS, func(info core.LoopInfo) (core.Scheduler, error) {
			probe = &engagedProbe{ni: info.NI, typ: make([]int, 8), on: make([]bool, 8), wantNs: make([]int64, 8)}
			for tid := range probe.typ {
				probe.typ[tid] = info.TypeOf(tid)
				probe.on[tid] = team
			}
			return probe, nil
		})
		cfg.Metrics = true
		cfg.Migrations = []Migration{
			{AtNs: 300_000, Tid: 0, ToCPU: 1},   // big -> small
			{AtNs: 600_000, Tid: 7, ToCPU: 6},   // small -> big
			{AtNs: 1_200_000, Tid: 0, ToCPU: 7}, // and back
		}
		spec := migrationLoop()
		spec.NI = 1000
		var res LoopResult
		var err error
		if team {
			res, err = RunLoop(cfg, spec, 0)
		} else {
			var rs []LoopResult
			if rs, err = RunLoops(cfg, []LoopSpec{spec}, nil, 0); err == nil {
				res = rs[0]
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.End <= 1_200_000 {
			t.Fatalf("team=%v: loop ended at %d, before the last migration", team, res.End)
		}
		if got := sumIters(res); got != spec.NI {
			t.Errorf("team=%v: covered %d of %d iterations", team, got, spec.NI)
		}
		for tid, w := range res.Metrics.Workers {
			if w.SchedNs != probe.wantNs[tid] {
				t.Errorf("team=%v: thread %d charged %d ns of contention, its pool line's population says %d",
					team, tid, w.SchedNs, probe.wantNs[tid])
			}
		}
	}
}
