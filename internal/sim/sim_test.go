package sim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/trace"
)

func staticFactory(info core.LoopInfo) (core.Scheduler, error)  { return core.NewStatic(info) }
func dynamicFactory(info core.LoopInfo) (core.Scheduler, error) { return core.NewDynamic(info, 1) }
func aidStaticFactory(info core.LoopInfo) (core.Scheduler, error) {
	return core.NewAIDStatic(info, 1)
}

func baseCfg(pl *amp.Platform, n int, b amp.Binding, f SchedulerFactory) Config {
	return Config{Platform: pl, NThreads: n, Binding: b, Factory: f}
}

// epLoop is an EP-like loop: uniform iteration cost, compute bound.
func epLoop(ni int64) LoopSpec {
	return LoopSpec{
		Name:    "ep-main",
		NI:      ni,
		Profile: amp.Profile{ILP: 0.9, MemIntensity: 0.05},
		Cost:    UniformCost{PerIter: 50000},
	}
}

func TestCostModels(t *testing.T) {
	u := UniformCost{PerIter: 3}
	if u.Units(5) != 3 || u.RangeUnits(2, 6) != 12 {
		t.Error("UniformCost wrong")
	}
	l := LinearCost{Base: 1, Slope: 2}
	// i=3: 1+6=7
	if l.Units(3) != 7 {
		t.Errorf("LinearCost.Units(3) = %v", l.Units(3))
	}
	// [2,5): 7 + 9 + 11 wait: units(2)=5, units(3)=7, units(4)=9 -> 21
	if got := l.RangeUnits(2, 5); got != 21 {
		t.Errorf("LinearCost.RangeUnits(2,5) = %v, want 21", got)
	}
}

func TestCostModelRangeMatchesSum(t *testing.T) {
	prop := func(loRaw, nRaw uint8, base, slope uint8) bool {
		lo := int64(loRaw)
		hi := lo + int64(nRaw%50)
		l := LinearCost{Base: float64(base), Slope: float64(slope) / 16}
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += l.Units(i)
		}
		return math.Abs(l.RangeUnits(lo, hi)-sum) < 1e-6*(1+sum)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestConfigValidate(t *testing.T) {
	pl := amp.PlatformA()
	good := baseCfg(pl, 8, amp.BindBS, staticFactory)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NThreads: 8, Factory: staticFactory},               // nil platform
		{Platform: pl, NThreads: 0, Factory: staticFactory}, // no threads
		{Platform: pl, NThreads: 9, Factory: staticFactory}, // oversubscribed
		{Platform: pl, NThreads: 8},                         // nil factory
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLoopSpecValidate(t *testing.T) {
	if err := epLoop(100).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := LoopSpec{Name: "x", NI: -1, Cost: UniformCost{1}}
	if err := bad.Validate(); err == nil {
		t.Error("negative NI accepted")
	}
	noCost := LoopSpec{Name: "x", NI: 10}
	if err := noCost.Validate(); err == nil {
		t.Error("nil cost accepted")
	}
	badProf := LoopSpec{Name: "x", NI: 10, Cost: UniformCost{1}, Profile: amp.Profile{ILP: 2}}
	if err := badProf.Validate(); err == nil {
		t.Error("bad profile accepted")
	}
}

func TestStaticImbalanceOnAMP(t *testing.T) {
	// The Fig. 1a scenario: EP under static on big+small cores. Big-core
	// threads finish far earlier than small-core threads; completion is
	// bounded by the small cores.
	pl := amp.PlatformA()
	cfg := baseCfg(pl, 8, amp.BindBS, staticFactory)
	r, err := RunLoop(cfg, epLoop(8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Threads 0-3 are big under BS; they must arrive at the barrier much
	// earlier than threads 4-7.
	bigMax := int64(0)
	smallMin := int64(math.MaxInt64)
	for tid := 0; tid < 4; tid++ {
		if r.Finish[tid] > bigMax {
			bigMax = r.Finish[tid]
		}
	}
	for tid := 4; tid < 8; tid++ {
		if r.Finish[tid] < smallMin {
			smallMin = r.Finish[tid]
		}
	}
	if float64(smallMin) < 2*float64(bigMax) {
		t.Errorf("expected small-core threads to finish >2x later: bigMax=%d smallMin=%d", bigMax, smallMin)
	}
}

func TestFig1EquivalenceTwoBigTwoSmallVsFourSmall(t *testing.T) {
	// Fig. 1 observation: EP with static on 2B-2S completes in nearly the
	// same time as on 4S, because the loop is bounded by the small cores.
	base := amp.PlatformA()
	cl := append([]amp.Cluster(nil), base.Clusters...)
	cl[0].NumCores = 2
	cl[1].NumCores = 2
	mixed, err := amp.New("A-2B2S", cl, base.Overhead)
	if err != nil {
		t.Fatal(err)
	}
	r2b2s, err := RunLoop(baseCfg(mixed, 4, amp.BindBS, staticFactory), epLoop(8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 threads, SB binding on the full platform -> CPUs 0-3, all small.
	r4s, err := RunLoop(baseCfg(base, 4, amp.BindSB, staticFactory), epLoop(8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	t1 := float64(r2b2s.End - r2b2s.Start)
	t2 := float64(r4s.End - r4s.Start)
	if math.Abs(t1-t2)/t2 > 0.05 {
		t.Errorf("2B-2S (%v) and 4S (%v) should complete within 5%%", t1, t2)
	}
}

func TestAIDStaticBeatsStaticOnLoop(t *testing.T) {
	pl := amp.PlatformA()
	rStatic, err := RunLoop(baseCfg(pl, 8, amp.BindBS, staticFactory), epLoop(8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	rAID, err := RunLoop(baseCfg(pl, 8, amp.BindBS, aidStaticFactory), epLoop(8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	tStatic := rStatic.End - rStatic.Start
	tAID := rAID.End - rAID.Start
	if float64(tStatic)/float64(tAID) < 1.3 {
		t.Errorf("AID-static (%d) should beat static (%d) by >=1.3x on this loop", tAID, tStatic)
	}
}

func TestDynamicOverheadHurtsShortIterations(t *testing.T) {
	// IS-like loop: very cheap iterations. dynamic(1) pays a pool access
	// plus locality penalty per iteration and must lose to static even on
	// an AMP (§5A: IS slows down 1.93x under dynamic).
	pl := amp.PlatformA()
	shortLoop := LoopSpec{
		Name:    "is-like",
		NI:      20000,
		Profile: amp.Profile{ILP: 0.3, MemIntensity: 0.55},
		Cost:    UniformCost{PerIter: 450},
	}
	rStatic, err := RunLoop(baseCfg(pl, 8, amp.BindBS, staticFactory), shortLoop, 0)
	if err != nil {
		t.Fatal(err)
	}
	rDyn, err := RunLoop(baseCfg(pl, 8, amp.BindBS, dynamicFactory), shortLoop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rDyn.End-rDyn.Start <= rStatic.End-rStatic.Start {
		t.Errorf("dynamic (%d) should lose to static (%d) on cheap iterations",
			rDyn.End-rDyn.Start, rStatic.End-rStatic.Start)
	}
}

func TestDynamicWinsOnExpensiveIterations(t *testing.T) {
	// With expensive uniform iterations, dynamic's pool overhead is
	// negligible and its asymmetry adaptation beats static ([13], §3).
	pl := amp.PlatformA()
	r1, err := RunLoop(baseCfg(pl, 8, amp.BindBS, staticFactory), epLoop(4000), 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunLoop(baseCfg(pl, 8, amp.BindBS, dynamicFactory), epLoop(4000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.End-r2.Start >= r1.End-r1.Start {
		t.Errorf("dynamic (%d) should beat static (%d) on expensive iterations",
			r2.End-r2.Start, r1.End-r1.Start)
	}
}

// threadTimelines splits a record's timeline into each thread's intervals.
func threadTimelines(rec *trace.Record) [][]trace.Interval {
	threads := make([][]trace.Interval, rec.NThreads)
	for _, iv := range rec.Timeline {
		threads[iv.Tid] = append(threads[iv.Tid], trace.Interval{Start: iv.StartNs, End: iv.EndNs, State: iv.State})
	}
	return threads
}

// timedRun runs one loop under a timed Recorder and returns its record.
func timedRun(t *testing.T, cfg Config, spec LoopSpec) (LoopResult, *trace.Record) {
	t.Helper()
	cfg.Recorder = trace.NewTimedRecorder()
	r, err := RunLoop(cfg, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, cfg.Recorder.Record()
}

func TestTraceRecording(t *testing.T) {
	pl := amp.PlatformA()
	r, rec := timedRun(t, baseCfg(pl, 8, amp.BindBS, staticFactory), epLoop(4000))
	var end int64
	running := make([]int64, rec.NThreads)
	for _, iv := range rec.Timeline {
		end = max(end, iv.EndNs)
		if iv.State == trace.Running {
			running[iv.Tid] += iv.EndNs - iv.StartNs
		}
	}
	if end != r.End {
		t.Errorf("timeline end %d != loop end %d", end, r.End)
	}
	// Under static on an AMP the trace must show heavy imbalance: big-core
	// threads wait at the barrier.
	if imb := rec.Digest().ImbalancePct; imb < 30 {
		t.Errorf("static trace imbalance = %v%%, expected heavy imbalance", imb)
	}
	for tid, run := range running {
		if run == 0 {
			t.Errorf("thread %d recorded no Running time", tid)
		}
	}
}

func TestAIDStaticTraceBalanced(t *testing.T) {
	pl := amp.PlatformA()
	_, rec := timedRun(t, baseCfg(pl, 8, amp.BindBS, aidStaticFactory), epLoop(8000))
	if imb := rec.Digest().ImbalancePct; imb > 15 {
		t.Errorf("AID-static trace imbalance = %v%%, want < 15%%", imb)
	}
}

func TestPoolAccessAccounting(t *testing.T) {
	pl := amp.PlatformA()
	r, err := RunLoop(baseCfg(pl, 8, amp.BindBS, staticFactory), epLoop(1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.PoolAccesses != 0 {
		t.Errorf("static performed %d pool accesses, want 0", r.PoolAccesses)
	}
	rd, err := RunLoop(baseCfg(pl, 8, amp.BindBS, dynamicFactory), epLoop(1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	// dynamic(1): one access per iteration plus one final failed access per
	// thread.
	if rd.PoolAccesses < 1000 || rd.PoolAccesses > 1100 {
		t.Errorf("dynamic pool accesses = %d, want ~1008", rd.PoolAccesses)
	}
}

func TestIterationConservation(t *testing.T) {
	pl := amp.PlatformA()
	for _, f := range []SchedulerFactory{staticFactory, dynamicFactory, aidStaticFactory} {
		r, err := RunLoop(baseCfg(pl, 8, amp.BindBS, f), epLoop(5000), 0)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, n := range r.Iters {
			total += n
		}
		if total != 5000 {
			t.Errorf("%s executed %d iterations, want 5000", r.SchedulerName, total)
		}
	}
}

func TestMeasureLoopSF(t *testing.T) {
	pl := amp.PlatformA()
	// Compute-bound loop: SF should approach the platform's compute SF.
	sf, err := MeasureLoopSF(pl, epLoop(2000))
	if err != nil {
		t.Fatal(err)
	}
	want := pl.OfflineSF(amp.Profile{ILP: 0.9, MemIntensity: 0.05})
	if math.Abs(sf-want)/want > 0.1 {
		t.Errorf("measured SF %v, platform model says %v", sf, want)
	}
	// Memory-bound loop: small SF.
	memLoop := LoopSpec{
		Name: "mem", NI: 2000,
		Profile: amp.Profile{ILP: 0.1, MemIntensity: 0.9},
		Cost:    UniformCost{PerIter: 50000},
	}
	sfMem, err := MeasureLoopSF(pl, memLoop)
	if err != nil {
		t.Fatal(err)
	}
	if sfMem >= sf {
		t.Errorf("memory-bound SF (%v) should be below compute-bound SF (%v)", sfMem, sf)
	}
}

func TestDeterminism(t *testing.T) {
	pl := amp.PlatformA()
	run := func() int64 {
		r, err := RunLoop(baseCfg(pl, 8, amp.BindBS, aidStaticFactory), epLoop(4000), 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.End
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulation not deterministic: %d vs %d", a, b)
	}
}

// --- programs ---

func TestPhaseValidate(t *testing.T) {
	loop := epLoop(10)
	good := []Phase{
		{Loop: &loop},
		{Loop: &loop, Reps: 5},
		{SerialUnits: 100},
	}
	for i, ph := range good {
		if err := ph.Validate(); err != nil {
			t.Errorf("good phase %d rejected: %v", i, err)
		}
	}
	bad := []Phase{
		{},
		{Loop: &loop, SerialUnits: 10},
		{Loop: &loop, Reps: -1},
		{SerialUnits: 10, SerialProfile: amp.Profile{ILP: 5}},
	}
	for i, ph := range bad {
		if err := ph.Validate(); err == nil {
			t.Errorf("bad phase %d accepted", i)
		}
	}
}

func TestProgramValidateAndLoops(t *testing.T) {
	loop := epLoop(10)
	pr := Program{Name: "p", Phases: []Phase{{SerialUnits: 5}, {Loop: &loop, Reps: 3}}}
	if err := pr.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	if got := len(pr.Loops()); got != 1 {
		t.Errorf("Loops() returned %d specs, want 1", got)
	}
	empty := Program{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestSerialPhaseFasterUnderBS(t *testing.T) {
	// A serial-dominated program (bptree-like, §5A) completes faster when
	// the master thread runs on a big core (BS) than on a small one (SB).
	pl := amp.PlatformA()
	loop := epLoop(800)
	prog := Program{
		Name: "serial-heavy",
		Phases: []Phase{
			{SerialUnits: 5e7, SerialProfile: amp.Profile{ILP: 0.6}},
			{Loop: &loop},
		},
	}
	rSB, err := RunProgram(baseCfg(pl, 8, amp.BindSB, staticFactory), prog)
	if err != nil {
		t.Fatal(err)
	}
	rBS, err := RunProgram(baseCfg(pl, 8, amp.BindBS, staticFactory), prog)
	if err != nil {
		t.Fatal(err)
	}
	if rBS.TotalNs >= rSB.TotalNs {
		t.Errorf("BS (%d) should beat SB (%d) for serial-heavy program", rBS.TotalNs, rSB.TotalNs)
	}
	speedup := float64(rSB.TotalNs) / float64(rBS.TotalNs)
	if speedup < 1.5 {
		t.Errorf("BS/SB acceleration = %v, want substantial (serial phase dominates)", speedup)
	}
}

// serialNs is how long a serial phase runs on the master thread under cfg.
func serialNs(cfg Config, ph Phase) int64 {
	pl := cfg.Platform
	return int64(ph.SerialUnits / pl.Speed(pl.CoreOf(0, cfg.NThreads, cfg.Binding), ph.SerialProfile, 1))
}

func TestProgramAccumulatesPhases(t *testing.T) {
	pl := amp.PlatformA()
	loop := epLoop(1000)
	serial := Phase{SerialUnits: 1e6, SerialProfile: amp.Profile{ILP: 0.5}}
	prog := Program{Name: "mix", Phases: []Phase{serial, {Loop: &loop, Reps: 3}}}
	cfg := baseCfg(pl, 8, amp.BindBS, dynamicFactory)
	r, err := RunProgram(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := RunLoop(cfg, loop, 0)
	if err != nil {
		t.Fatal(err)
	}
	ser, span := serialNs(cfg, serial), lr.End-lr.Start
	if ser <= 0 || span <= 0 {
		t.Fatalf("phase durations: serial=%d loop=%d", ser, span)
	}
	if r.TotalNs != ser+3*span {
		t.Errorf("total %d != serial %d + 3 x loop %d", r.TotalNs, ser, span)
	}
	if r.PoolAccesses < 3000 {
		t.Errorf("3 reps of dynamic(1) over 1000 iters should log >=3000 accesses, got %d", r.PoolAccesses)
	}
}

// TestProgramTraceContiguity: a timed Recorder on a program records its one
// loop execution where the serial phase before it ended, and each thread's
// timeline tiles the run from that start to its barrier with no hole (an
// overlap panics in Recorder.Add).
func TestProgramTraceContiguity(t *testing.T) {
	pl := amp.PlatformA()
	loop := epLoop(500)
	serial := Phase{SerialUnits: 1e6, SerialProfile: amp.Profile{ILP: 0.5}}
	cfg := baseCfg(pl, 4, amp.BindBS, staticFactory)
	cfg.Recorder = trace.NewTimedRecorder()
	res, err := RunProgram(cfg, Program{Name: "t", Phases: []Phase{serial, {Loop: &loop}, serial}})
	if err != nil {
		t.Fatal(err)
	}
	rec := cfg.Recorder.Record()
	ser := serialNs(cfg, serial)
	if rec.StartNs != ser || rec.MakespanNs != res.TotalNs-2*ser {
		t.Errorf("the record starts at %d and spans %d, want the first serial phase's end %d and the loop's %d",
			rec.StartNs, rec.MakespanNs, ser, res.TotalNs-2*ser)
	}
	for tid, ivs := range threadTimelines(rec) {
		at := rec.StartNs
		for _, iv := range ivs {
			if iv.Start != at {
				t.Fatalf("thread %d: interval starts at %d, previous ended at %d", tid, iv.Start, at)
			}
			at = iv.End
		}
		if at != rec.StartNs+rec.MakespanNs {
			t.Errorf("thread %d: timeline ends at %d, the run at %d", tid, at, rec.StartNs+rec.MakespanNs)
		}
	}
}

func TestAIDStaticThreeCoreTypes(t *testing.T) {
	// §4.2's NC-core-type generalization: on the tri-cluster platform,
	// AID-static must give prime threads more iterations than middle
	// threads, and middle more than little, with balanced finish times.
	pl := amp.PlatformTri()
	cfg := baseCfg(pl, 8, amp.BindBS, aidStaticFactory)
	loop := LoopSpec{
		Name:    "tri-loop",
		NI:      24000,
		Profile: amp.Profile{ILP: 0.6, MemIntensity: 0.2},
		Cost:    UniformCost{PerIter: 60000},
	}
	r, err := RunLoop(cfg, loop, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Threads 0-1 prime, 2-4 middle, 5-7 little under BS.
	prime := float64(r.Iters[0]+r.Iters[1]) / 2
	middle := float64(r.Iters[2]+r.Iters[3]+r.Iters[4]) / 3
	little := float64(r.Iters[5]+r.Iters[6]+r.Iters[7]) / 3
	if !(prime > middle*1.1 && middle > little*1.1) {
		t.Errorf("three-type distribution not ordered: prime %v, middle %v, little %v",
			prime, middle, little)
	}
	// The distribution should track the emergent speed ratios within ~20%.
	pSpeed := pl.Speed(7, loop.Profile, 2)
	mSpeed := pl.Speed(4, loop.Profile, 3)
	lSpeed := pl.Speed(0, loop.Profile, 3)
	wantPM := pSpeed / mSpeed
	gotPM := prime / middle
	if gotPM < wantPM*0.8 || gotPM > wantPM*1.2 {
		t.Errorf("prime/middle iteration ratio %v, speed ratio %v", gotPM, wantPM)
	}
	wantML := mSpeed / lSpeed
	gotML := middle / little
	if gotML < wantML*0.8 || gotML > wantML*1.2 {
		t.Errorf("middle/little iteration ratio %v, speed ratio %v", gotML, wantML)
	}
	// Balanced completion.
	var minF, maxF = r.Finish[0], r.Finish[0]
	for _, f := range r.Finish[1:] {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if float64(maxF-minF) > 0.12*float64(maxF) {
		t.Errorf("three-type AID-static imbalanced: %v", r.Finish)
	}
}

func TestAIDDynamicThreeCoreTypes(t *testing.T) {
	pl := amp.PlatformTri()
	cfg := baseCfg(pl, 8, amp.BindBS, func(info core.LoopInfo) (core.Scheduler, error) {
		return core.NewAIDDynamic(info, 1, 10)
	})
	loop := LoopSpec{
		Name:    "tri-dyn",
		NI:      24000,
		Profile: amp.Profile{ILP: 0.6, MemIntensity: 0.2},
		Cost:    UniformCost{PerIter: 60000},
	}
	r, err := RunLoop(cfg, loop, 0)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range r.Iters {
		total += n
	}
	if total != loop.NI {
		t.Fatalf("covered %d of %d iterations", total, loop.NI)
	}
	prime := float64(r.Iters[0]+r.Iters[1]) / 2
	little := float64(r.Iters[5]+r.Iters[6]+r.Iters[7]) / 3
	if prime <= little*1.2 {
		t.Errorf("AID-dynamic on 3 types: prime avg %v should exceed little avg %v", prime, little)
	}
}
