package sim

import (
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/trace"
)

// multiCfg is the shared fleet configuration of the multi-loop tests:
// the full Platform A under BS with a per-loop dynamic scheduler.
func multiCfg(chunk int64) Config {
	return Config{
		Platform: amp.PlatformA(),
		NThreads: 8,
		Binding:  amp.BindBS,
		Factory: func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewDynamic(info, chunk)
		},
	}
}

func uniformSpec(name string, ni int64, weight int) LoopSpec {
	return LoopSpec{
		Name:    name,
		NI:      ni,
		Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.1},
		Cost:    UniformCost{PerIter: 20000},
		Weight:  weight,
	}
}

func sumIters(r LoopResult) int64 {
	var t int64
	for _, n := range r.Iters {
		t += n
	}
	return t
}

// TestMultiLoopExactCoverageMixedTenants runs K=5 concurrent loops with
// mixed trip counts (0, 1, prime, large) and mixed schedulers on one fleet
// and asserts per-loop exact coverage and per-loop barrier release: every
// loop gets an End, and the degenerate tenants release long before the
// large ones. Each AID tenant publishes its SF estimate mid-run: its first
// SF sample in the run's record comes before its own barrier release, one
// entry per cluster.
func TestMultiLoopExactCoverageMixedTenants(t *testing.T) {
	cfg := multiCfg(4)
	cfg.Factory = nil
	cfg.FactoryNamed = func(name string, info core.LoopInfo) (core.Scheduler, error) {
		switch name {
		case "empty", "big-dynamic":
			return core.NewDynamic(info, 4)
		case "one":
			return core.NewStatic(info)
		case "prime-aid-dynamic":
			return core.NewAIDDynamic(info, 1, 5)
		case "big-aid-hybrid":
			return core.NewAIDHybrid(info, 1, 0.8)
		}
		return nil, nil
	}
	specs := []LoopSpec{
		uniformSpec("empty", 0, 1),
		uniformSpec("one", 1, 1),
		uniformSpec("prime-aid-dynamic", 10007, 1),
		uniformSpec("big-dynamic", 200_000, 1),
		uniformSpec("big-aid-hybrid", 200_000, 1),
	}
	cfg.Recorder = trace.NewRecorder()
	results, err := RunLoops(cfg, specs, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for li, r := range results {
		if got := sumIters(r); got != specs[li].NI {
			t.Errorf("loop %q covered %d of %d iterations", specs[li].Name, got, specs[li].NI)
		}
		if r.End <= 0 && specs[li].NI > 0 {
			t.Errorf("loop %q barrier never released (End=%d)", specs[li].Name, r.End)
		}
	}
	phases := cfg.Recorder.Record().Phases
	for _, li := range []int{2, 4} {
		r := results[li]
		at := slices.IndexFunc(phases, func(p trace.PhaseEvent) bool { return p.Loop == li && len(p.SF) > 0 })
		if at < 0 {
			t.Errorf("loop %q published no SF", specs[li].Name)
			continue
		}
		first := phases[at]
		if first.TimeNs >= r.End {
			t.Errorf("loop %q first SF point at %d, not before End %d", specs[li].Name, first.TimeNs, r.End)
		}
		if len(first.SF) != len(cfg.Platform.Clusters) {
			t.Errorf("loop %q SF table has %d entries, want %d", specs[li].Name, len(first.SF), len(cfg.Platform.Clusters))
		}
	}
	// Independent barriers: the empty and single-iteration tenants release
	// while the big tenants are still running.
	for _, small := range []int{0, 1} {
		for _, big := range []int{3, 4} {
			if results[small].End >= results[big].End {
				t.Errorf("loop %q (End %d) should release before %q (End %d)",
					specs[small].Name, results[small].End, specs[big].Name, results[big].End)
			}
		}
	}
}

// TestMultiLoopWeightedFairness submits two identical loops with weights
// 2:1 under weighted round-robin: the heavy loop must take the larger
// fleet share and release its barrier first, while total work conservation
// keeps the second barrier near the single-policy makespan.
func TestMultiLoopWeightedFairness(t *testing.T) {
	cfg := multiCfg(8)
	specs := []LoopSpec{
		uniformSpec("heavy", 60_000, 2),
		uniformSpec("light", 60_000, 1),
	}
	results, err := RunLoops(cfg, specs, fair.NewWeightedRoundRobin(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	for li, r := range results {
		if got := sumIters(r); got != specs[li].NI {
			t.Fatalf("loop %q covered %d of %d", specs[li].Name, got, specs[li].NI)
		}
	}
	if results[0].End >= results[1].End {
		t.Errorf("weight-2 loop End %d should precede weight-1 loop End %d",
			results[0].End, results[1].End)
	}
	// With a 2:1 share the heavy loop should be clearly ahead — its barrier
	// well before the light loop's — but not as extreme as run-to-completion.
	ratio := float64(results[0].End) / float64(results[1].End)
	if ratio > 0.95 {
		t.Errorf("weighted shares had no effect: End ratio %.3f", ratio)
	}
}

// TestMultiLoopFCFSHeadOfLine pins the baseline the fairness policy
// replaces: under first-come-first-served the whole fleet serves the oldest
// loop to completion, so the first barrier releases at roughly half the
// makespan and the second loop is blocked behind it.
func TestMultiLoopFCFSHeadOfLine(t *testing.T) {
	cfg := multiCfg(8)
	specs := []LoopSpec{
		uniformSpec("first", 60_000, 1),
		uniformSpec("second", 60_000, 1),
	}
	results, err := RunLoops(cfg, specs, fair.NewFCFS(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for li, r := range results {
		if got := sumIters(r); got != specs[li].NI {
			t.Fatalf("loop %q covered %d of %d", specs[li].Name, got, specs[li].NI)
		}
	}
	if results[0].End >= results[1].End {
		t.Fatalf("FCFS first loop End %d should precede second End %d",
			results[0].End, results[1].End)
	}
	if ratio := float64(results[0].End) / float64(results[1].End); ratio > 0.75 {
		t.Errorf("FCFS head-of-line not visible: End ratio %.3f, want ~0.5", ratio)
	}
}

// TestMultiLoopEqualWeightsBalanced checks that two identical weight-1
// loops release their barriers close together under WRR — neither starves.
func TestMultiLoopEqualWeightsBalanced(t *testing.T) {
	cfg := multiCfg(8)
	specs := []LoopSpec{
		uniformSpec("a", 60_000, 1),
		uniformSpec("b", 60_000, 1),
	}
	results, err := RunLoops(cfg, specs, fair.NewWeightedRoundRobin(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	early, late := results[0].End, results[1].End
	if early > late {
		early, late = late, early
	}
	if float64(early) < 0.8*float64(late) {
		t.Errorf("equal-weight loops diverged: Ends %d vs %d", results[0].End, results[1].End)
	}
}

// TestMultiLoopSingleMatchesDedicatedDistribution runs one loop through
// RunLoops and through RunLoop under schedulers whose decisions do not
// depend on time, and asserts the same per-thread distribution and the same
// pool traffic: the two modes differ only in fork/join accounting and in
// who contends at the start, and neither reaches such a scheduler. (Online
// AID-static is not one: its sampled SF sees the start's contention.)
func TestMultiLoopSingleMatchesDedicatedDistribution(t *testing.T) {
	for name, f := range map[string]SchedulerFactory{
		"dynamic,16": func(info core.LoopInfo) (core.Scheduler, error) { return core.NewDynamic(info, 16) },
		"static":     staticFactory,
		"aid-static-offline": func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDStaticOffline(info, 1, []float64{1.9, 1})
		},
	} {
		cfg := multiCfg(0)
		cfg.Factory = f
		spec := uniformSpec("solo", 40_000, 1)
		multi, err := RunLoops(cfg, []LoopSpec{spec}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		single, err := RunLoop(cfg, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sumIters(multi[0]) != spec.NI || sumIters(single) != spec.NI {
			t.Fatalf("%s: coverage: multi %d, single %d of %d", name, sumIters(multi[0]), sumIters(single), spec.NI)
		}
		if multi[0].PoolAccesses != single.PoolAccesses {
			t.Errorf("%s: pool accesses differ: multi %d vs single %d", name, multi[0].PoolAccesses, single.PoolAccesses)
		}
		for tid := range multi[0].Iters {
			if multi[0].Iters[tid] != single.Iters[tid] {
				t.Errorf("%s: thread %d iters differ: multi %d vs single %d",
					name, tid, multi[0].Iters[tid], single.Iters[tid])
			}
		}
	}
}

func TestMultiLoopErrors(t *testing.T) {
	cfg := multiCfg(4)
	spec := uniformSpec("x", 100, 1)
	if _, err := RunLoops(cfg, nil, nil, 0); err == nil {
		t.Error("empty spec list accepted")
	}
	bad := cfg
	for _, m := range []Migration{{Tid: 0, ToCPU: 99}, {Tid: 8, ToCPU: 0}, {Tid: -1, ToCPU: 0},
		{AtNs: 900_000_000_000, Tid: 0, ToCPU: 99}} {
		bad.Migrations = []Migration{m}
		if _, err := RunLoops(bad, []LoopSpec{spec}, nil, 0); err == nil {
			t.Errorf("migration %+v accepted", m)
		}
	}
	neg := spec
	neg.Weight = -1
	if _, err := RunLoops(cfg, []LoopSpec{neg}, nil, 0); err == nil {
		t.Error("negative weight accepted")
	}
	if err := neg.Validate(); err == nil {
		t.Error("LoopSpec.Validate accepted negative weight")
	}
}

// TestMultiLoopStaggeredArrivals is the open-loop extension's core
// contract: a loop admitted mid-run starts at its arrival stamp, never
// executes before it, still gets exact coverage, and its Start reflects the
// arrival (so End-Start is queueing-inclusive service latency, and the
// fleet span max(End)-min(Start) exceeds every individual latency when
// starts stagger).
func TestMultiLoopStaggeredArrivals(t *testing.T) {
	cfg := multiCfg(8)
	early := uniformSpec("early", 40_000, 1)
	late := uniformSpec("late", 40_000, 1)
	// Late arrives roughly mid-way through early's solo run.
	soloRes, err := RunLoops(cfg, []LoopSpec{early}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	late.Arrive = soloRes[0].End / 2
	results, err := RunLoops(cfg, []LoopSpec{early, late}, fair.NewWeightedRoundRobin(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	for li, spec := range []LoopSpec{early, late} {
		if got := sumIters(results[li]); got != spec.NI {
			t.Fatalf("loop %q covered %d of %d", spec.Name, got, spec.NI)
		}
	}
	if results[0].Start != 0 {
		t.Errorf("early loop Start = %d, want 0", results[0].Start)
	}
	if results[1].Start != late.Arrive {
		t.Errorf("late loop Start = %d, want its arrival %d", results[1].Start, late.Arrive)
	}
	if results[1].End <= late.Arrive {
		t.Errorf("late loop End %d not after its arrival %d", results[1].End, late.Arrive)
	}
	// No worker may touch the late loop before it arrives: its earliest
	// per-thread Finish (and hence every grant) is after Arrive, and the
	// early loop must have made progress alone — its End under staggered
	// competition lands before the late loop's.
	for tid, f := range results[1].Finish {
		if f < late.Arrive {
			t.Errorf("thread %d finished late loop at %d, before its arrival %d", tid, f, late.Arrive)
		}
	}
	if results[0].End >= results[1].End {
		t.Errorf("early loop End %d should precede late loop End %d", results[0].End, results[1].End)
	}
	// Fleet span vs per-loop latency: the span max(End)-min(Start) must
	// strictly exceed the larger individual latency — the quantity the
	// aidserve makespan bug conflated.
	span := results[1].End - 0
	lat0 := results[0].End - results[0].Start
	lat1 := results[1].End - results[1].Start
	if span <= lat0 || span <= lat1 {
		t.Errorf("fleet span %d not beyond per-loop latencies %d/%d", span, lat0, lat1)
	}
}

// TestMultiLoopArrivalAfterQuietFleet: a loop arriving after every earlier
// loop has drained must still run (workers idle forward to the arrival
// instead of exiting), and virtual time jumps — no busy-wait is modeled.
func TestMultiLoopArrivalAfterQuietFleet(t *testing.T) {
	cfg := multiCfg(8)
	first := uniformSpec("first", 5_000, 1)
	second := uniformSpec("second", 5_000, 1)
	second.Arrive = int64(1e12) // far beyond first's drain
	results, err := RunLoops(cfg, []LoopSpec{first, second}, fair.NewWeightedRoundRobin(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumIters(results[1]); got != second.NI {
		t.Fatalf("post-idle loop covered %d of %d", got, second.NI)
	}
	if results[0].End >= second.Arrive {
		t.Fatalf("first loop End %d overlaps the far arrival %d", results[0].End, second.Arrive)
	}
	if results[1].Start != second.Arrive || results[1].End <= second.Arrive {
		t.Fatalf("idle-forward admission broken: Start %d End %d, arrival %d",
			results[1].Start, results[1].End, second.Arrive)
	}
	// The second loop ran on an otherwise idle fleet: its service time must
	// match a solo run of the same spec admitted at the same stamp.
	solo := second
	soloRes, err := RunLoops(cfg, []LoopSpec{solo}, nil, second.Arrive)
	if err != nil {
		t.Fatal(err)
	}
	if gotLat, soloLat := results[1].End-results[1].Start, soloRes[0].End-soloRes[0].Start; gotLat != soloLat {
		t.Errorf("post-idle latency %d differs from solo latency %d", gotLat, soloLat)
	}
}

// TestMultiLoopArrivalBreaksBurst: a single-tenant fleet serves under one
// unbounded burst, which an admission ends (fair.Fleet.Over, in both
// engines), and the test pins that a mid-run arrival still gets served
// promptly (the worker re-enters the policy rather than draining the first
// loop to completion, which is what FCFS — and an admission that ended no
// grant — would do).
func TestMultiLoopArrivalBreaksBurst(t *testing.T) {
	cfg := multiCfg(8)
	big := uniformSpec("big", 80_000, 1)
	small := uniformSpec("small", 2_000, 1)
	small.Arrive = 1_000_000 // early in big's run
	wrr, err := RunLoops(cfg, []LoopSpec{big, small}, fair.NewWeightedRoundRobin(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	fcfs, err := RunLoops(cfg, []LoopSpec{big, small}, fair.NewFCFS(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Under WRR the small tenant must finish well before the big one; under
	// FCFS it is blocked behind it. If arrivals failed to break the burst,
	// WRR would degrade to the FCFS ordering.
	if wrr[1].End >= wrr[0].End {
		t.Errorf("WRR: small arrival End %d not before big End %d (burst never broke)", wrr[1].End, wrr[0].End)
	}
	if fcfs[1].End <= fcfs[0].End {
		t.Errorf("FCFS baseline lost head-of-line ordering: small End %d, big End %d", fcfs[1].End, fcfs[0].End)
	}
}

// TestMultiLoopTraceTiles: a fleet timeline accounts for every nanosecond
// of every worker from the run's start to the worker's last retirement —
// Sched and Running per runtime call, Sync across the gaps a worker idles
// forward over — with no hole and no overlap, and its Sched and Running
// totals are the results' own.
func TestMultiLoopTraceTiles(t *testing.T) {
	const startNs = 5_000
	cfg := multiCfg(8)
	cfg.Recorder = trace.NewTimedRecorder()
	specs := []LoopSpec{
		uniformSpec("at-start", 20_000, 1),
		uniformSpec("mid-run", 10_000, 2),
		uniformSpec("after-quiet", 5_000, 1),
	}
	specs[1].Arrive = startNs + 1_000_000
	specs[2].Arrive = startNs + 1_000_000_000_000
	rs, err := RunLoops(cfg, specs, nil, startNs)
	if err != nil {
		t.Fatal(err)
	}
	var schedNs, tracedSched int64
	for _, r := range rs {
		schedNs += r.SchedNs
	}
	rec := cfg.Recorder.Record()
	d := rec.Digest()
	for tid, ivs := range threadTimelines(rec) {
		at := int64(startNs)
		for _, iv := range ivs {
			if iv.Start != at {
				t.Fatalf("thread %d: interval starts at %d, previous ended at %d", tid, iv.Start, at)
			}
			at = iv.End
		}
		var last int64
		for _, r := range rs {
			last = max(last, r.Finish[tid])
		}
		if at != last {
			t.Errorf("thread %d: timeline ends at %d, last retirement at %d", tid, at, last)
		}
		if sync := d.Threads[tid].SyncNs; sync < specs[2].Arrive-max(rs[0].End, rs[1].End) {
			t.Errorf("thread %d: %d ns of Sync do not cover the quiet gap before the last arrival", tid, sync)
		}
		tracedSched += d.Threads[tid].SchedNs
	}
	if tracedSched != schedNs {
		t.Errorf("timeline has %d ns of Sched, the loops report %d", tracedSched, schedNs)
	}
}

// TestMultiLoopArrivalOrderPinned runs a fleet whose loops arrive in an order
// unrelated to their indices — a pair at the start, pairs sharing a stamp,
// most while earlier ones are still in flight — which the four ascending
// arrivals of TestEngineGolden's fleet do not: the engine keeps its open
// loops in index order whatever order they were admitted in, because the
// position of a candidate decides what a policy picks. The digests were
// written by the commit before the open-loop list replaced the scan over all
// loops, and re-taken from the unchanged engine when the result's SF
// trajectory field and then its per-cluster energy were dropped from
// dumpResult.
func TestMultiLoopArrivalOrderPinned(t *testing.T) {
	const n = 24
	specs := make([]LoopSpec, n)
	for i := range specs {
		specs[i] = uniformSpec("p", 300+int64(i%5)*170, 1+i%3)
		// 7 is coprime to 24, so the slots are a permutation of the indices;
		// halving them makes the loops arrive in pairs.
		specs[i].Arrive = int64(i*7%n/2) * 90_000
	}
	for _, c := range []struct {
		policy fair.Policy
		want   uint64
	}{
		{fair.NewWeightedRoundRobin(0), 0xf1ec558d9c66fa27},
		{fair.NewFCFS(), 0x75d059880f3021bf},
	} {
		rs, err := RunLoops(multiCfg(4), specs, c.policy, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		maxInFlight := 0
		for li, r := range rs {
			if got := sumIters(r); got != specs[li].NI {
				t.Errorf("%s: loop %d covered %d of %d iterations", c.policy.Name(), li, got, specs[li].NI)
			}
			dumpResult(h, r)
			inFlight := 0
			for _, o := range rs {
				if o.Start <= r.Start && r.Start < o.End {
					inFlight++
				}
			}
			maxInFlight = max(maxInFlight, inFlight)
		}
		if maxInFlight < 4 {
			t.Errorf("%s: at most %d loops in flight at once; the case is meant to overlap them", c.policy.Name(), maxInFlight)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: digest %#016x, pinned %#016x", c.policy.Name(), got, c.want)
		}
	}
}
