package rt

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// spinWork burns deterministic CPU time; the result is returned so the
// compiler cannot elide the loop.
func spinWork(units int) float64 {
	x := 1.0
	for i := 0; i < units; i++ {
		x += 1.0 / (x + float64(i))
	}
	return x
}

// TestCrossEngineEquivalence runs the same seeded workload under the
// discrete-event simulator and the real-goroutine Team executor and asserts
// that the two engines agree on the things that must not depend on the
// engine: every iteration is covered exactly once, all threads participate,
// and the AID online SF estimate exists with the same structure (slowest
// type normalized to 1, big-core estimate above 1). When enough hardware
// parallelism is available for wall-clock sampling to be meaningful, it
// additionally asserts the two SF estimates converge within tolerance.
func TestCrossEngineEquivalence(t *testing.T) {
	pl := amp.PlatformA()
	profile := amp.Profile{ILP: 0.9, MemIntensity: 0.05}
	const (
		ni       = 4000
		nthreads = 8 // the full Platform A: 4 big + 4 small under BS
		chunk    = 16
		// Per-iteration spin weight: heavy enough that on an oversubscribed
		// machine the pool outlives goroutine scheduling skew (~10ms
		// preemption slices), so every worker gets to sample before the
		// loop drains and the SF transition can complete.
		spin = 20000
	)
	sched := core.Schedule{Kind: core.KindAIDStatic, Chunk: chunk}

	// Engine 1: the simulator, in virtual time.
	simCfg := sim.Config{
		Platform: pl,
		NThreads: nthreads,
		Binding:  amp.BindBS,
		Factory:  sched.Factory(),
	}
	spec := sim.LoopSpec{
		Name:    "cross-engine",
		NI:      ni,
		Profile: profile,
		Cost:    sim.UniformCost{PerIter: 60000},
	}
	simRes, err := sim.RunLoop(simCfg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Engine 2: real goroutines with emulated asymmetry, in wall-clock time.
	team, err := NewTeam(TeamConfig{
		Platform: pl,
		NThreads: nthreads,
		Binding:  amp.BindBS,
		Schedule: sched,
		Profile:  profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]atomic.Int32, ni)
	rtRes, err := team.ParallelForChunkedStats(ni, func(_ int, lo, hi int64) {
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
			spinWork(spin)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Identical iteration coverage: exactly once under both engines.
	for i := range covered {
		if c := covered[i].Load(); c != 1 {
			t.Fatalf("rt engine covered iteration %d %d times", i, c)
		}
	}
	checkOutcome(t, "sim", simRes.Outcome, pl, nthreads, ni)
	checkOutcome(t, "rt", rtRes.Outcome, pl, nthreads, ni)
	if simRes.SchedulerName != rtRes.SchedulerName {
		t.Errorf("scheduler name differs across engines: %q vs %q", simRes.SchedulerName, rtRes.SchedulerName)
	}

	// Both engines must surface an online SF estimate, which AID-static
	// normalizes to its slowest sampled type.
	normalized := func(engine string, sf []float64) {
		if slowest := slices.Min(sf); math.Abs(slowest-1) > 1e-9 {
			t.Errorf("%s: slowest-type SF = %v, want 1 (normalization)", engine, slowest)
		}
	}
	if simRes.SFEstimate == nil {
		t.Fatal("sim engine produced no SF estimate")
	}
	normalized("sim", simRes.SFEstimate)
	if simRes.SFEstimate[0] <= 1.2 {
		t.Errorf("sim big-core SF estimate = %v, expected clearly above 1", simRes.SFEstimate[0])
	}
	if rtRes.SFEstimate == nil {
		// The sampling phase can only fail to complete when scheduling skew
		// drains the pool before some worker's first chunk — possible only
		// without real parallelism.
		if runtime.NumCPU() >= nthreads {
			t.Fatal("rt engine produced no SF estimate")
		}
		t.Logf("rt SF estimate unavailable under oversubscription (%d CPUs); sim SF %v",
			runtime.NumCPU(), simRes.SFEstimate)
		return
	}
	normalized("rt", rtRes.SFEstimate)

	// SF convergence across engines needs real parallelism: on an
	// oversubscribed machine the wall-clock sampling window of one worker
	// includes other workers' timeslices and the estimate degenerates.
	if runtime.NumCPU() < nthreads {
		t.Logf("sim SF %v, rt SF %v (convergence check skipped: %d CPUs < %d workers)",
			simRes.SFEstimate, rtRes.SFEstimate, runtime.NumCPU(), nthreads)
		return
	}
	for ty := range simRes.SFEstimate {
		s, r := simRes.SFEstimate[ty], rtRes.SFEstimate[ty]
		ratio := r / s
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("SF estimate for core type %d diverges across engines: sim %v, rt %v", ty, s, r)
		}
	}
}

// TestCrossEngineCoverageAllSchedules sweeps every schedule kind through
// both engines on the same loop and asserts exact coverage on each.
func TestCrossEngineCoverageAllSchedules(t *testing.T) {
	pl := amp.PlatformA()
	profile := amp.Profile{ILP: 0.5, MemIntensity: 0.2}
	const ni = 2003
	schedules := []core.Schedule{
		{Kind: core.KindStatic},
		{Kind: core.KindStaticChunked, Chunk: 7},
		{Kind: core.KindDynamic, Chunk: 3},
		{Kind: core.KindGuided, Chunk: 2},
		{Kind: core.KindAIDStatic, Chunk: 4},
		{Kind: core.KindAIDHybrid, Chunk: 4, Pct: 0.8},
		{Kind: core.KindAIDDynamic, Chunk: 2, Major: 10},
		{Kind: core.KindWorkSteal, Chunk: 4},
	}
	for _, s := range schedules {
		t.Run(s.String(), func(t *testing.T) {
			simRes, err := sim.RunLoop(sim.Config{
				Platform: pl,
				NThreads: 8,
				Binding:  amp.BindBS,
				Factory:  s.Factory(),
			}, sim.LoopSpec{Name: "sweep", NI: ni, Profile: profile, Cost: sim.UniformCost{PerIter: 1000}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, "sim", simRes.Outcome, pl, 8, ni)

			team, err := NewTeam(TeamConfig{Platform: pl, Schedule: s, Profile: profile})
			if err != nil {
				t.Fatal(err)
			}
			covered := make([]atomic.Int32, ni)
			rtRes, err := team.ParallelForChunkedStats(ni, func(_ int, lo, hi int64) {
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, "rt", rtRes.Outcome, pl, team.NThreads(), ni)
			for i := range covered {
				if c := covered[i].Load(); c != 1 {
					t.Fatalf("iteration %d covered %d times", i, c)
				}
			}
		})
	}
}

// checkOutcome checks what a loop of ni iterations reports, whichever
// engine ran it on nthreads workers of pl: one iteration count per worker,
// summing to ni; a named scheduler; and, when the scheduler published one,
// an SF estimate with one positive, finite entry per core type. The upper
// bound, AID-dynamic's clamp of 64, is asked only of an estimate whose size
// means something: virtual time's, or one sampled on wall clocks with a CPU
// per worker. Wall-clock samples taken by more workers than there are CPUs
// include other workers' timeslices, and under load the ratio has read
// 80-110.
func checkOutcome(t *testing.T, engine string, out obs.Outcome, pl *amp.Platform, nthreads int, ni int64) {
	t.Helper()
	if len(out.Iters) != nthreads {
		t.Fatalf("%s: %d iteration counts for %d workers", engine, len(out.Iters), nthreads)
	}
	var total int64
	for _, n := range out.Iters {
		total += n
	}
	if total != ni {
		t.Fatalf("%s covered %d of %d iterations", engine, total, ni)
	}
	if out.SchedulerName == "" {
		t.Errorf("%s: no scheduler name", engine)
	}
	if out.SFEstimate == nil {
		return
	}
	if len(out.SFEstimate) != len(pl.Clusters) {
		t.Fatalf("%s: SF estimate %v has %d entries, want %d", engine, out.SFEstimate, len(out.SFEstimate), len(pl.Clusters))
	}
	bounded := engine == "sim" || runtime.NumCPU() >= nthreads
	for ty, v := range out.SFEstimate {
		if !(v > 0) || math.IsInf(v, 0) || (bounded && v > 64) {
			t.Errorf("%s: SF[%d] = %v out of sane range", engine, ty, v)
		}
	}
}

// TestGrantExecIsRunningTime pins the invariant trace.Record.Digest rests on:
// in a record with a timeline, each thread's grants' ExecNs sum to its
// timeline Running time, under both engines — an aidtrace-style simulator
// record of EP under AID-dynamic, and a Team capture on real goroutines. It
// also pins the barrier-wait rule both engines' ledgers follow for a team:
// each thread's Sync time runs from its retirement, the end of the runtime
// call its retire event opens, to the release, the last retirement (the
// record's end, before the simulator's join half of the fork/join cost).
func TestGrantExecIsRunningTime(t *testing.T) {
	pl := amp.PlatformA()
	sched := core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}
	w, ok := workloads.ByName("EP")
	if !ok {
		t.Fatal("no EP workload")
	}
	recorder := trace.NewRecorder()
	cfg := sim.Config{Platform: pl, NThreads: pl.NumCores(), Binding: amp.BindBS,
		Factory: sched.Factory(), Trace: trace.New(pl.NumCores()), Recorder: recorder}
	if _, err := sim.RunLoop(cfg, w.Program.Loops()[0], 0); err != nil {
		t.Fatal(err)
	}
	team, err := NewTeam(TeamConfig{Platform: pl, NThreads: 4, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	rtRec, _, err := team.RecordParallelFor("spin", 20000, func(_ int, lo, hi int64) { spinWork(int(hi - lo)) })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		engine string
		rec    *trace.Record
	}{{"sim", recorder.Record()}, {"rt", rtRec}} {
		tr := c.rec.Trace()
		if tr == nil {
			t.Fatalf("%s: record has no timeline", c.engine)
		}
		busy := make([]int64, c.rec.NThreads)
		retired := make([]int64, c.rec.NThreads)
		for _, ev := range c.rec.Events {
			if !ev.Retire {
				busy[ev.Tid] += ev.ExecNs
			} else {
				retired[ev.Tid] = ev.TimeNs
			}
		}
		release := c.rec.StartNs + c.rec.MakespanNs
		if c.engine == "sim" {
			fj := c.rec.Platform.Overhead.ForkJoinNs
			release -= int64(fj) - int64(fj/2)
		}
		for tid, r := range retired {
			for _, iv := range tr.Intervals(tid) {
				if iv.State == trace.Sched && iv.Start <= r && r < iv.End {
					r = min(iv.End, release) // the retire call; a join may extend it
				}
			}
			if sync := tr.TimeIn(tid, trace.Sync); sync != release-r {
				t.Errorf("%s t%d: %d ns of Sync, want release %d - retirement %d = %d", c.engine, tid, sync, release, r, release-r)
			}
		}
		var total int64
		for tid, b := range busy {
			if run := tr.TimeIn(tid, trace.Running); b != run {
				t.Errorf("%s t%d: grants' ExecNs sum to %d, timeline Running is %d", c.engine, tid, b, run)
			}
			total += b
		}
		if total == 0 {
			t.Errorf("%s: no thread was busy", c.engine)
		}
	}
}
