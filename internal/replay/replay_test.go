package replay

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recordSim records one simulated loop under the given schedule text.
func recordSim(t *testing.T, schedText string, spec sim.LoopSpec, withTrace bool) *trace.Record {
	t.Helper()
	return recordRun(t, schedText, []sim.LoopSpec{spec}, nil, withTrace)
}

// recordRun records one simulated run on platform A with every core and
// every loop under the given schedule text: a fork/join team for one spec
// and no policy, a fleet under policy (nil is the engine's default)
// otherwise, with migs injected.
func recordRun(t testing.TB, schedText string, specs []sim.LoopSpec, policy fair.Policy, withTrace bool, migs ...sim.Migration) *trace.Record {
	t.Helper()
	sched, err := core.ParseSchedule(schedText)
	if err != nil {
		t.Fatal(err)
	}
	pl := amp.PlatformA()
	rec := trace.NewRecorder()
	if withTrace {
		rec = trace.NewTimedRecorder()
	}
	cfg := sim.Config{
		Platform:   pl,
		NThreads:   pl.NumCores(),
		Factory:    sched.Factory(),
		Recorder:   rec,
		Migrations: migs,
	}
	if len(specs) == 1 && policy == nil {
		_, err = sim.RunLoop(cfg, specs[0], 0)
	} else {
		_, err = sim.RunLoops(cfg, specs, policy, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		rec.SetLoopSchedule(i, sched.Canonical())
	}
	return rec.Record()
}

// burstSpecs are three loops of different profiles and cost shapes.
func burstSpecs() []sim.LoopSpec {
	return []sim.LoopSpec{
		{Name: "a", NI: 4000, Profile: amp.Profile{ILP: 0.6}, Cost: sim.UniformCost{PerIter: 50000}, Weight: 2},
		{Name: "b", NI: 2000, Profile: amp.Profile{ILP: 0.2, MemIntensity: 0.4}, Cost: sim.LinearCost{Base: 20000, Slope: 30}},
		{Name: "c", NI: 1000, Profile: amp.Profile{MemIntensity: 0.7}, Cost: sim.UniformCost{PerIter: 90000}},
	}
}

// arrivalSpecs are six loops that arrive 0.7 ms apart, each while the
// earlier ones still run.
func arrivalSpecs() []sim.LoopSpec {
	var specs []sim.LoopSpec
	for i := 0; i < 6; i++ {
		specs = append(specs, sim.LoopSpec{Name: fmt.Sprint("l", i), NI: 3000,
			Profile: amp.Profile{ILP: 0.5}, Cost: sim.UniformCost{PerIter: 20000},
			Weight: 1 + i%3, Arrive: int64(i) * 700_000})
	}
	return specs
}

func epSpec() sim.LoopSpec {
	return sim.LoopSpec{
		Name:    "ep-main",
		NI:      16384,
		Profile: amp.Profile{ILP: 0.25, MemIntensity: 0.05, FootprintMB: 0.1},
		Cost:    sim.BlockNoisyCost{Base: 120000, Amp: 0.35, BlockLen: 256, Seed: 0xE9},
	}
}

// encode encodes rec into a *bytes.Buffer, which the encoder reserves room
// in, and checks that a writer hiding Grow, which takes the encoder's bufio
// path, gets the same bytes.
func encode(t *testing.T, rec *trace.Record) []byte {
	t.Helper()
	var buf, plain bytes.Buffer
	if err := trace.EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeJSONL(struct{ io.Writer }{&plain}, rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plain.Bytes()) {
		t.Fatalf("EncodeJSONL writes %d bytes into a *bytes.Buffer and %d different ones through a plain writer", buf.Len(), plain.Len())
	}
	return buf.Bytes()
}

// roundTrip pushes a record through the codec, as the CLI does, so replay
// always sees a deserialized record.
func roundTrip(t *testing.T, rec *trace.Record) *trace.Record {
	t.Helper()
	got, err := trace.DecodeJSONL(bytes.NewReader(encode(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestExactReplaySimLoop is the core acceptance property: an exact replay
// of a sim-recorded run reproduces the identical event stream, timeline and
// makespan (verified inside Exact), and two replays serialize identically.
func TestExactReplaySimLoop(t *testing.T) {
	for _, schedText := range []string{"aid-dynamic,1,5", "aid-static", "dynamic,8", "static"} {
		rec := roundTrip(t, recordSim(t, schedText, epSpec(), true))
		r1, err := Exact(rec)
		if err != nil {
			t.Fatalf("%s: Exact: %v", schedText, err)
		}
		if r1.MakespanNs != rec.MakespanNs {
			t.Fatalf("%s: makespan %d, recorded %d", schedText, r1.MakespanNs, rec.MakespanNs)
		}
		// The replayed record reproduces the recorded timeline too.
		if len(r1.Record.Timeline) != len(rec.Timeline) {
			t.Fatalf("%s: replayed %d timeline intervals, recorded %d", schedText, len(r1.Record.Timeline), len(rec.Timeline))
		}
		for i, iv := range r1.Record.Timeline {
			if iv != rec.Timeline[i] {
				t.Fatalf("%s: timeline interval %d diverged: %+v vs %+v", schedText, i, iv, rec.Timeline[i])
			}
		}
		r2, err := Exact(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, r1.Record), encode(t, r2.Record)) {
			t.Fatalf("%s: two exact replays serialized differently", schedText)
		}
	}
}

// TestExactReplaySimMultiLoop: a sim.RunLoops record replays exactly — the
// scripted policy must reproduce each worker's loop-visit order, and the
// makespan must match exactly — both for a closed burst (every loop
// admitted at the start) and for an open-loop record whose loops arrive at
// 0, 5 ms and 500 ms: the record carries the admission stamps, so the replay
// idles forward over the same gaps, and a what-if keeps the arrival pattern.
// A record an earlier build wrote under the retired "sf-aware" policy still
// replays exactly; a what-if refuses to rerun that policy unless told which
// one to use instead.
func TestExactReplaySimMultiLoop(t *testing.T) {
	for name, arrive := range map[string][3]int64{
		"closed":    {},
		"staggered": {0, 5_000_000, 500_000_000},
	} {
		t.Run(name, func(t *testing.T) {
			specs := burstSpecs()
			for i := range specs {
				specs[i].Arrive = arrive[i]
			}
			record := roundTrip(t, recordRun(t, "aid-dynamic,1,5", specs, nil, false))
			r1, err := Exact(record)
			if err != nil {
				t.Fatalf("Exact multi-loop: %v", err)
			}
			if r1.MakespanNs != record.MakespanNs {
				t.Fatalf("makespan %d, recorded %d", r1.MakespanNs, record.MakespanNs)
			}
			r2, err := Exact(record)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(t, r1.Record), encode(t, r2.Record)) {
				t.Fatal("two exact multi-loop replays serialized differently")
			}
			wi, err := WhatIf(record, WhatIfConfig{Schedule: "dynamic,8"})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range wi.Results {
				if r.Start != arrive[i] {
					t.Errorf("what-if admitted loop %q at %d, recorded arrival %d", specs[i].Name, r.Start, arrive[i])
				}
			}

			old := *record
			old.Policy = "sf-aware"
			r3, err := Exact(&old)
			if err != nil {
				t.Fatalf("Exact on a record under sf-aware: %v", err)
			}
			if !bytes.Equal(encode(t, r1.Record), encode(t, r3.Record)) {
				t.Fatal("a record under sf-aware replayed differently from the same record under its own policy")
			}
			_, err = WhatIf(&old, WhatIfConfig{})
			if err == nil || !strings.Contains(err.Error(), "sf-aware") || !strings.Contains(err.Error(), "wrr or fcfs") {
				t.Fatalf("WhatIf kept the retired policy of a record under sf-aware: err = %v, want one naming sf-aware and wrr or fcfs", err)
			}
			if _, err := WhatIf(&old, WhatIfConfig{Policy: "wrr"}); err != nil {
				t.Fatalf("WhatIf under wrr of a record under sf-aware: %v", err)
			}
		})
	}
}

// TestExactReplayZeroTripLoop: a recorded zero-trip loop is all retire
// events and must replay cleanly.
func TestExactReplayZeroTripLoop(t *testing.T) {
	spec := sim.LoopSpec{Name: "empty", NI: 0, Cost: sim.UniformCost{PerIter: 1}}
	rec := roundTrip(t, recordSim(t, "dynamic,4", spec, false))
	if _, err := Exact(rec); err != nil {
		t.Fatalf("Exact on zero-trip record: %v", err)
	}
}

// TestExactDetectsCorruptRecord: dropping a grant or granting twice must
// fail coverage verification, not silently replay.
func TestExactDetectsCorruptRecord(t *testing.T) {
	rec := roundTrip(t, recordSim(t, "dynamic,8", epSpec(), false))
	// Drop the first real grant: a coverage hole.
	holed := roundTrip(t, rec)
	for i, ev := range holed.Events {
		if !ev.Retire {
			holed.Events = append(holed.Events[:i], holed.Events[i+1:]...)
			break
		}
	}
	if _, err := Exact(holed); err == nil {
		t.Error("Exact accepted a record with a coverage hole")
	}
	// What-if must reject it too: with a piecewise cost the hole would
	// silently replay as zero-cost iterations.
	if _, err := WhatIf(holed, WhatIfConfig{Schedule: "aid-static"}); err == nil {
		t.Error("WhatIf accepted a record with a coverage hole")
	}
	// Duplicate a grant: double coverage.
	doubled := roundTrip(t, rec)
	for _, ev := range doubled.Events {
		if !ev.Retire {
			doubled.Events = append(doubled.Events, ev)
			break
		}
	}
	if _, err := Exact(doubled); err == nil {
		t.Error("Exact accepted a record with a doubly granted chunk")
	}
	// A cost with no JSON form: named by its event, before anything runs.
	poisoned := roundTrip(t, rec)
	poisoned.Events[3].Cost = math.NaN()
	if _, err := Exact(poisoned); err == nil || !strings.Contains(err.Error(), "event 3 ") {
		t.Errorf("Exact on a NaN chunk cost: %v, want an error naming event 3", err)
	}
}

// TestWhatIfSwapsScheduler runs the recorded workload under a different
// scheduler and checks the counterfactual is deterministic and complete.
func TestWhatIfSwapsScheduler(t *testing.T) {
	rec := roundTrip(t, recordSim(t, "dynamic,1", epSpec(), true))
	w1, err := WhatIf(rec, WhatIfConfig{Schedule: "aid-static"})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := WhatIf(rec, WhatIfConfig{Schedule: "aid-static"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, w1.Record), encode(t, w2.Record)) {
		t.Fatal("what-if replay is not deterministic")
	}
	if w1.Record.Loops[0].Schedule != "aid-static,1" {
		t.Errorf("what-if record carries schedule %q", w1.Record.Loops[0].Schedule)
	}
	if got := w1.Record.Loops[0].Scheduler; got != "aid-static" {
		t.Errorf("what-if ran %q, want aid-static", got)
	}
	var iters int64
	for _, n := range w1.Results[0].Iters {
		iters += n
	}
	if iters != rec.Loops[0].NI {
		t.Errorf("what-if executed %d iterations, want %d", iters, rec.Loops[0].NI)
	}
	// dynamic,1 pays a pool access per iteration; AID-static should cut
	// pool traffic by orders of magnitude on this loop.
	if w1.Results[0].PoolAccesses*10 >= 16384 {
		t.Errorf("aid-static what-if still performs %d pool accesses", w1.Results[0].PoolAccesses)
	}
}

// TestWhatIfKeepsRecordedSchedule: with no override, each loop re-runs
// under its recorded schedule — reproducing the original makespan for a
// sim-produced record, since the simulator is deterministic.
func TestWhatIfKeepsRecordedSchedule(t *testing.T) {
	rec := roundTrip(t, recordSim(t, "aid-dynamic,1,5", epSpec(), true))
	w, err := WhatIf(rec, WhatIfConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if w.MakespanNs != rec.MakespanNs {
		t.Errorf("keep-schedule what-if makespan %d, recorded %d", w.MakespanNs, rec.MakespanNs)
	}
}

// TestWhatIfFromRTRecord is the acceptance property for the real engine:
// what-if replay of an rt-recorded run under a swapped scheduler is
// deterministic across repeated invocations.
func TestWhatIfFromRTRecord(t *testing.T) {
	team, err := rt.NewTeam(rt.TeamConfig{NThreads: 4, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	rec, err := team.RecordParallelFor("rt-loop", 4096, func(_ int, lo, hi int64) {
		runtime.Gosched()
	})
	if err != nil {
		t.Fatal(err)
	}
	record := roundTrip(t, rec)
	if record.Engine != "rt" {
		t.Fatalf("record engine %q", record.Engine)
	}
	// Exact replay: coverage and per-thread grant totals must verify.
	if _, err := Exact(record); err != nil {
		t.Fatalf("Exact on rt record: %v", err)
	}
	// What-if under a swapped scheduler, twice: byte-identical.
	w1, err := WhatIf(record, WhatIfConfig{Schedule: "aid-hybrid,80"})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := WhatIf(record, WhatIfConfig{Schedule: "aid-hybrid,80"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, w1.Record), encode(t, w2.Record)) {
		t.Fatal("rt what-if replay is not deterministic")
	}
	var iters int64
	for _, n := range w1.Results[0].Iters {
		iters += n
	}
	if iters != 4096 {
		t.Errorf("what-if executed %d iterations, want 4096", iters)
	}
}

// TestDiffIdenticalRunsIsClean is the acceptance property for diff: zero
// regressions for identical runs.
func TestDiffIdenticalRunsIsClean(t *testing.T) {
	rec := roundTrip(t, recordSim(t, "aid-dynamic,1,5", epSpec(), true))
	rep := Diff(rec, roundTrip(t, rec), 2.0)
	if rep.Regressions != 0 {
		t.Fatalf("identical runs diffed with %d regressions:\n%s", rep.Regressions, rep)
	}
	for _, m := range rep.Metrics {
		if m.DeltaPct != 0 {
			t.Errorf("metric %s has nonzero delta %v for identical runs", m.Name, m.DeltaPct)
		}
	}
}

// TestDiffFlagsRegression: a candidate with a worse makespan and more pool
// traffic must be flagged.
func TestDiffFlagsRegression(t *testing.T) {
	base := roundTrip(t, recordSim(t, "aid-static", epSpec(), true))
	// dynamic,1 on this loop pays a pool access per iteration and a far
	// larger runtime overhead: a genuine scheduling regression.
	cand, err := WhatIf(base, WhatIfConfig{Schedule: "dynamic,1"})
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(base, cand.Record, 2.0)
	if rep.Regressions == 0 {
		t.Fatalf("regression not flagged:\n%s", rep)
	}
	var poolFlagged bool
	for _, m := range rep.Metrics {
		if m.Name == "pool_accesses" && m.Regression {
			poolFlagged = true
		}
	}
	if !poolFlagged {
		t.Errorf("pool_accesses not flagged:\n%s", rep)
	}
	// The report renders with a verdict line.
	if s := rep.String(); !bytes.Contains([]byte(s), []byte("REGRESSION")) {
		t.Errorf("report lacks regression markers:\n%s", s)
	}
}

// TestDiffImprovementIsNotRegression: a faster candidate must not be
// flagged (cost metrics regress one-sided).
func TestDiffImprovementIsNotRegression(t *testing.T) {
	base := roundTrip(t, recordSim(t, "dynamic,1", epSpec(), true))
	cand, err := WhatIf(base, WhatIfConfig{Schedule: "aid-static"})
	if err != nil {
		t.Fatal(err)
	}
	rep := Diff(base, cand.Record, 2.0)
	for _, m := range rep.Metrics {
		switch m.Name {
		case "makespan_ns", "pool_accesses", "chunks", "sched_ns_total":
			if m.Regression && m.B < m.A {
				t.Errorf("improvement flagged as regression: %+v", m)
			}
		}
	}
}

// TestPiecewiseCost checks the reconstructed cost model: exact segment
// queries return stored totals, partial queries interpolate.
func TestPiecewiseCost(t *testing.T) {
	rec := &trace.Record{
		Version: trace.RecordVersion, Engine: "rt",
		Platform: trace.PlatformRecordOf(amp.PlatformA()),
		NThreads: 2, Binding: "BS",
		Loops: []trace.LoopRecord{{Name: "l", NI: 10}},
		Events: []trace.ChunkEvent{
			{TimeNs: 1, Tid: 0, Loop: 0, Lo: 0, Hi: 4, Cost: 400},
			{TimeNs: 2, Tid: 1, Loop: 0, Lo: 4, Hi: 10, Cost: 300},
		},
	}
	c, err := costFromEvents(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RangeUnits(0, 4); got != 400 {
		t.Errorf("exact segment = %v, want 400", got)
	}
	if got := c.RangeUnits(4, 10); got != 300 {
		t.Errorf("exact segment = %v, want 300", got)
	}
	if got := c.RangeUnits(0, 10); got != 700 {
		t.Errorf("full span = %v, want 700", got)
	}
	if got := c.RangeUnits(2, 4); got != 200 {
		t.Errorf("half segment = %v, want 200", got)
	}
	if got := c.RangeUnits(2, 7); got != 200+150 {
		t.Errorf("straddling span = %v, want 350", got)
	}
	if got := c.Units(0); got != 100 {
		t.Errorf("Units(0) = %v, want 100", got)
	}
	if got := c.Units(5); got != 50 {
		t.Errorf("Units(5) = %v, want 50", got)
	}
}

// TestExactReplayArrivalsCutRuns: the scripted policy grants a worker its
// whole recorded run of calls to one loop, and an arrival ends that grant
// early, so the next pick must resume at the calls the scripts actually
// served. Under FCFS a worker goes back to the oldest loop after every
// arrival, so its recorded runs span arrivals. A simulated fleet record
// whose loops arrive while others run, and an rt-captured one whose second
// and third loops are submitted mid-run, must both replay exactly.
func TestExactReplayArrivalsCutRuns(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		record := roundTrip(t, recordRun(t, "dynamic,4", arrivalSpecs(), fair.NewFCFS(), false))
		r1, err := Exact(record)
		if err != nil {
			t.Fatalf("Exact: %v", err)
		}
		if r1.MakespanNs != record.MakespanNs {
			t.Fatalf("makespan %d, recorded %d", r1.MakespanNs, record.MakespanNs)
		}
	})
	t.Run("rt", func(t *testing.T) {
		reg, err := rt.NewRegistry(rt.RegistryConfig{NThreads: 2, Policy: fair.NewFCFS()})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		var loops []*rt.Loop
		for i := 0; i < 3; i++ {
			l, err := reg.Submit(rt.LoopRequest{Name: fmt.Sprint("l", i), N: 2000, Capture: true,
				Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8},
				Body: func(_ int, lo, hi int64) {
					// About a microsecond per iteration, so that every
					// loop is still running when the next one arrives.
					for start := time.Now(); time.Since(start) < time.Duration(hi-lo)*time.Microsecond; {
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			loops = append(loops, l)
			time.Sleep(200 * time.Microsecond)
		}
		for _, l := range loops {
			l.Wait()
		}
		rec, err := reg.BuildRecord(loops...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Exact(roundTrip(t, rec)); err != nil {
			t.Fatalf("Exact on rt record: %v", err)
		}
	})
}
