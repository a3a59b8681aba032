package rt

import (
	"bytes"
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/trace"
)

// coverageFromEvents asserts the grant events tile [0, n) exactly once and
// returns the number of retire events.
func coverageFromEvents(t *testing.T, evs []trace.ChunkEvent, n int64) int {
	t.Helper()
	seen := make([]int8, n)
	retires := 0
	for _, ev := range evs {
		if ev.Retire {
			retires++
			continue
		}
		for i := ev.Lo; i < ev.Hi; i++ {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d granted %d times", i, c)
		}
	}
	return retires
}

// stateNs sums thread tid's time in state s on the record's timeline.
func stateNs(rec *trace.Record, tid int, s trace.State) int64 {
	var ns int64
	for _, iv := range rec.Timeline {
		if iv.Tid == tid && iv.State == s {
			ns += iv.EndNs - iv.StartNs
		}
	}
	return ns
}

// TestTeamParallelForCapturesTimeline: a recorded team loop's record carries
// the real executor's timeline, its chunk events and its phase transitions.
func TestTeamParallelForCapturesTimeline(t *testing.T) {
	team := newTestTeam(t, TeamConfig{NThreads: 4, Schedule: core.Schedule{Kind: core.KindAIDStatic}})
	// The body yields after each chunk: with a no-op body on GOMAXPROCS=1
	// the first worker drains the whole pool before the rest of the fleet
	// wakes, sampling never completes, and no SF transition exists to
	// capture. Cooperative rotation guarantees every worker participates.
	const n = 20000
	var ran atomic.Int64
	rec, err := team.RecordParallelFor("capture", n, func(_ int, lo, hi int64) {
		ran.Add(hi - lo)
		runtime.Gosched()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d iterations, want %d", ran.Load(), n)
	}
	if len(rec.Timeline) == 0 {
		t.Fatal("capture produced no timeline")
	}
	if rec.NThreads != 4 {
		t.Fatalf("record has %d threads, want 4", rec.NThreads)
	}
	totalRun := int64(0)
	for tid := 0; tid < 4; tid++ {
		totalRun += stateNs(rec, tid, trace.Running)
		if stateNs(rec, tid, trace.Sched) <= 0 {
			t.Errorf("thread %d recorded no Sched time", tid)
		}
	}
	if totalRun <= 0 {
		t.Error("timeline recorded no Running time")
	}
	if rec.MakespanNs <= 0 {
		t.Errorf("record makespan %d not positive", rec.MakespanNs)
	}
	if retires := coverageFromEvents(t, rec.Events, n); retires != 4 {
		t.Errorf("%d retire events, want one per worker", retires)
	}
	// AID-static publishes exactly one SF transition.
	found := false
	for _, p := range rec.Phases {
		if p.Kind == "sf-published" && len(p.SF) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("no sf-published phase captured: %+v", rec.Phases)
	}
	// Events must be time-ordered (TestRegistryBuildRecordMultiLoop checks
	// each worker's grant order against its tape).
	for i, ev := range rec.Events {
		if i > 0 && ev.TimeNs < rec.Events[i-1].TimeNs {
			t.Fatalf("event %d out of time order", i)
		}
	}
}

// TestTeamCaptureOffByDefault: a loop that is not recorded pays for no
// tapes, and the team builds no record of it.
func TestTeamCaptureOffByDefault(t *testing.T) {
	team := newTestTeam(t, TeamConfig{NThreads: 2})
	_, rec, err := team.run("parallel-for", 100, func(_ int, _, _ int64) {}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Error("a record was built for a loop run without capture")
	}
	l, err := team.reg.Submit(LoopRequest{N: 100, Body: func(_ int, _, _ int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	l.Wait()
	if l.capture != nil {
		t.Error("a loop submitted without Capture has tapes")
	}
}

// TestRegistryBuildRecordMultiLoop captures two concurrent loops and checks
// the assembled record is a valid, codec-round-trippable multi-loop record.
func TestRegistryBuildRecordMultiLoop(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const n0, n1 = 6000, 3000
	l0, err := reg.Submit(LoopRequest{Name: "alpha", N: n0, Capture: true, Weight: 2,
		Schedule: core.Schedule{Kind: core.KindAIDDynamic}, Body: func(_ int, _, _ int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := reg.Submit(LoopRequest{Name: "beta", N: n1, Capture: true,
		Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 16}, Body: func(_ int, _, _ int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	l0.Wait()
	l1.Wait()
	rec, err := reg.BuildRecord(l0, l1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Engine != "rt" || rec.NThreads != 4 || len(rec.Loops) != 2 {
		t.Fatalf("record header wrong: %+v", rec)
	}
	if rec.Policy == "" {
		t.Error("multi-loop record carries no policy name")
	}
	if rec.Loops[0].Schedule != "aid-dynamic,1,5" || rec.Loops[1].Schedule != "dynamic,16" {
		t.Errorf("canonical schedules wrong: %q %q", rec.Loops[0].Schedule, rec.Loops[1].Schedule)
	}
	var ev0, ev1 []trace.ChunkEvent
	for _, ev := range rec.Events {
		switch ev.Loop {
		case 0:
			ev0 = append(ev0, ev)
		case 1:
			ev1 = append(ev1, ev)
		default:
			t.Fatalf("event references loop %d", ev.Loop)
		}
		if !ev.Retire && ev.Cost <= 0 {
			// A zero-duration chunk on a coarse clock is possible, but the
			// derived cost must then be zero, never negative.
			if ev.Cost < 0 {
				t.Fatalf("event has negative derived cost: %+v", ev)
			}
		}
	}
	coverageFromEvents(t, ev0, n0)
	coverageFromEvents(t, ev1, n1)
	// Each worker's events of each loop keep the order of its tape: the
	// grant order replay depends on.
	for li, l := range []*Loop{l0, l1} {
		for tid := range l.capture {
			tape, _, _ := l.capture.Thread(tid)
			var got []trace.ChunkEvent
			for _, ev := range rec.Events {
				if ev.Loop == int32(li) && ev.Tid == int32(tid) {
					got = append(got, ev)
				}
			}
			if len(got) != len(tape) {
				t.Fatalf("loop %d worker %d: %d events in the record, %d on its tape", li, tid, len(got), len(tape))
			}
			for k, ev := range got {
				if w := tape[k]; ev.Lo != w.Lo || ev.Hi != w.Hi || ev.Retire != w.Retire || ev.TimeNs != w.TimeNs {
					t.Fatalf("loop %d worker %d: record event %d is %+v, tape has %+v", li, tid, k, ev, w)
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := trace.EncodeJSONL(&buf, rec); err != nil {
		t.Fatalf("record does not encode: %v", err)
	}
	if _, err := trace.DecodeJSONL(&buf); err != nil {
		t.Fatalf("record does not decode: %v", err)
	}
}

// budgetedPair submits two captured loops with different event budgets at
// once, their bodies yielding so that the workers' grants interleave, and
// waits for both.
func budgetedPair(t *testing.T, reg *Registry) []*Loop {
	t.Helper()
	var loops []*Loop
	for i, budget := range []int{24, 40} {
		l, err := reg.Submit(LoopRequest{Name: "budgeted", N: 6000, Capture: true, CaptureMaxEvents: budget,
			Schedule: core.Schedule{Kind: []core.Kind{core.KindDynamic, core.KindAIDDynamic}[i], Chunk: 1, Major: 5},
			Body:     func(_ int, _, _ int64) { runtime.Gosched() }})
		if err != nil {
			t.Fatal(err)
		}
		loops = append(loops, l)
	}
	for _, l := range loops {
		l.Wait()
	}
	return loops
}

// tapeEvents is every event on a loop's tapes, in the engines' event order.
func tapeEvents(l *Loop) []trace.ChunkEvent {
	var evs []trace.ChunkEvent
	for tid := range l.capture {
		tape, _, _ := l.capture.Thread(tid)
		evs = append(evs, tape...)
	}
	slices.SortFunc(evs, trace.EventOrder)
	return evs
}

// TestBuildRecordBudgetPerLoop: a record of several loops reduces each to its
// own CaptureMaxEvents. It holds that many of the loop's events, or all of
// them once compacted when they are fewer, and they still begin with the
// loop's first event (its thread, time and first iteration; compaction may
// extend its range) and end with its last, the final retirement.
func TestBuildRecordBudgetPerLoop(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	loops := budgetedPair(t, reg)
	rec, err := reg.BuildRecord(loops...)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range loops {
		var kept []trace.ChunkEvent
		for _, ev := range rec.Events {
			if ev.Loop == int32(li) {
				kept = append(kept, ev)
			}
		}
		raw := tapeEvents(l)
		if len(raw) <= l.captureMax {
			t.Fatalf("loop %d: %d captured events, the budget %d binds nothing", li, len(raw), l.captureMax)
		}
		if want := min(len(trace.CompactEvents(raw)), l.captureMax); len(kept) != want {
			t.Fatalf("loop %d: the record holds %d of its events, want %d (budget %d)", li, len(kept), want, l.captureMax)
		}
		if h, first := kept[0], raw[0]; h.TimeNs != first.TimeNs || h.Tid != first.Tid || h.Lo != first.Lo {
			t.Errorf("loop %d: head not kept: record starts with %+v, tapes with %+v", li, h, first)
		}
		if tl, last := kept[len(kept)-1], raw[len(raw)-1]; !last.Retire || !tl.Retire || tl.TimeNs != last.TimeNs || tl.Tid != last.Tid {
			t.Errorf("loop %d: tail not kept: record ends with %+v, tapes with %+v", li, tl, last)
		}
		t.Logf("loop %d: %d events captured, %d in the record (budget %d)", li, len(raw), len(kept), l.captureMax)
	}
}

// TestBuildRecordLeavesTapes: BuildRecord reads the tapes and writes none
// of them (no compaction, trim, loop index or cost lands on a tape, no
// interval or phase changes), so a second record of the same loops equals
// the first.
func TestBuildRecordLeavesTapes(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	loops := budgetedPair(t, reg)
	thread := func(l *Loop, tid int) []any {
		evs, phs, ivs := l.capture.Thread(tid)
		return []any{evs, slices.Clone(phs), slices.Clone(ivs)}
	}
	var before [][]any
	for _, l := range loops {
		for tid := range l.capture {
			before = append(before, thread(l, tid))
		}
	}
	first, err := reg.BuildRecord(loops...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := reg.BuildRecord(loops...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two records of the same loops differ")
	}
	k := 0
	for li, l := range loops {
		for tid := range l.capture {
			if !reflect.DeepEqual(thread(l, tid), before[k]) {
				t.Errorf("loop %d worker %d: building a record changed the tape", li, tid)
			}
			k++
		}
	}
}

// TestBuildRecordAfterOtherRecordings: the blocks a recording hands back go
// to pools that a captured loop's workers take their tapes' blocks from too,
// but a tape's never go back. Recordings that fill and empty those pools
// between two BuildRecord calls on the same loops change neither the first
// record nor the second: both spell the bytes the first spelled when it was
// built.
func TestBuildRecordAfterOtherRecordings(t *testing.T) {
	reg, loops, first := capturedLoops(t, 2)
	var want bytes.Buffer
	if err := trace.EncodeJSONL(&want, first); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		rec := trace.NewRecorder()
		if err := rec.BeginRun(trace.RunMeta{Engine: "sim", Platform: first.Platform, NThreads: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50_000; i++ {
			rec.Chunk(trace.ChunkEvent{TimeNs: 1<<50 + int64(i), Tid: int32(i % 2), Lo: -7, Hi: -7})
		}
		if n := len(rec.Record().Events); n != 50_000 {
			t.Fatalf("a recording of 50000 events holds %d", n)
		}
	}
	second, err := reg.BuildRecord(loops...)
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]*trace.Record{"first": first, "second": second} {
		var got bytes.Buffer
		if err := trace.EncodeJSONL(&got, rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("the %s record of the loops differs from the first as it was built", name)
		}
	}
}

// referenceRecord builds the record of loops as BuildRecord did while it
// merged the tapes itself: it gathers every tape's events, sorts each loop's
// by (TimeNs, Tid, Seq), compacts and trims them to the loop's budget, stamps
// each with its loop and, unless it is a retirement, its cost; sorts all of
// them again, sorts the phases stably by time and thread, adds the final SF
// samples last and copies a one-loop record's intervals, each through a
// Recorder's streaming calls.
func referenceRecord(t *testing.T, r *Registry, loops ...*Loop) *trace.Record {
	t.Helper()
	oldOrder := func(a, b trace.ChunkEvent) int {
		if a.TimeNs != b.TimeNs {
			return cmp.Compare(a.TimeNs, b.TimeNs)
		}
		if a.Tid != b.Tid {
			return cmp.Compare(a.Tid, b.Tid)
		}
		return cmp.Compare(a.Seq, b.Seq)
	}
	byPhaseTime := func(a, b trace.PhaseEvent) int {
		if a.TimeNs != b.TimeNs {
			return cmp.Compare(a.TimeNs, b.TimeNs)
		}
		return cmp.Compare(a.Tid, b.Tid)
	}
	occupancy := make([]int, len(r.platform.Clusters))
	for tid := 0; tid < r.nthreads; tid++ {
		occupancy[r.types[tid]]++
	}
	speed := make([]float64, r.nthreads)
	for tid := range speed {
		speed[tid] = r.platform.Speed(r.platform.CoreOf(tid, r.nthreads, r.binding), r.profile, occupancy[r.types[tid]])
	}
	rec, policy := trace.NewTimedRecorder(), ""
	if len(loops) > 1 {
		rec, policy = trace.NewRecorder(), r.policy.Name()
	}
	startNs, endNs := loops[0].stats.Start, loops[0].stats.End
	for _, l := range loops {
		startNs, endNs = min(startNs, l.stats.Start), max(endNs, l.stats.End)
	}
	if err := rec.BeginRun(trace.RunMeta{Engine: "rt", Platform: trace.PlatformRecordOf(r.platform),
		NThreads: r.nthreads, Binding: r.binding.String(), Policy: policy, StartNs: startNs}); err != nil {
		t.Fatal(err)
	}
	var evs []trace.ChunkEvent
	var phs []trace.PhaseEvent
	for _, l := range loops {
		idx := rec.AddLoop(trace.LoopRecord{Name: l.name, NI: l.n, Weight: l.weight,
			Scheduler: l.stats.SchedulerName, Schedule: l.schedule.Canonical(), Profile: r.profile})
		from := len(evs)
		for tid := range l.capture {
			tape, phases, _ := l.capture.Thread(tid)
			evs = append(evs, tape...)
			for _, p := range phases {
				p.Loop = idx
				phs = append(phs, p)
			}
		}
		slices.SortFunc(evs[from:], oldOrder)
		if l.captureMax > 0 {
			evs = append(evs[:from], trace.TrimToBudget(trace.CompactEvents(evs[from:]), l.captureMax)...)
		}
		for i := from; i < len(evs); i++ {
			evs[i].Loop = int32(idx)
			if !evs[i].Retire {
				evs[i].Cost = float64(evs[i].ExecNs) * speed[evs[i].Tid]
			}
		}
	}
	slices.SortFunc(evs, oldOrder)
	for _, ev := range evs {
		rec.Chunk(ev)
	}
	slices.SortStableFunc(phs, byPhaseTime)
	for _, p := range phs {
		rec.Phase(p)
	}
	if len(loops) == 1 {
		for tid := range loops[0].capture {
			_, _, ivs := loops[0].capture.Thread(tid)
			for _, iv := range ivs {
				rec.Add(tid, iv.Start, iv.End, iv.State)
			}
		}
	}
	rec.EndRun(endNs - startNs)
	return rec.Record()
}

// TestBuildRecordMatchesReference: the record BuildRecord builds through
// trace.Recorder.AddTapes equals referenceRecord's for one timed loop, two
// loops, a budgeted pair, and an AID team loop with phases and barrier waits.
func TestBuildRecordMatchesReference(t *testing.T) {
	type batch struct {
		reg   *Registry
		loops []*Loop
	}
	cases := map[string]func() batch{
		"one loop": func() batch {
			reg, loops, _ := capturedLoops(t, 1)
			return batch{reg, loops}
		},
		"two loops": func() batch {
			reg, loops, _ := capturedLoops(t, 2)
			return batch{reg, loops}
		},
		"budgeted pair": func() batch {
			reg, err := NewRegistry(RegistryConfig{NThreads: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(reg.Close)
			return batch{reg, budgetedPair(t, reg)}
		},
		"aid team loop": func() batch {
			team := newTestTeam(t, TeamConfig{NThreads: 4})
			// The yielding body lets every worker sample (see
			// TestTeamParallelForCapturesTimeline).
			l, err := team.reg.Submit(LoopRequest{Name: "aid", N: 20000, Capture: true,
				Schedule: core.Schedule{Kind: core.KindAIDStatic}, Body: func(int, int64, int64) { runtime.Gosched() }})
			if err != nil {
				t.Fatal(err)
			}
			l.Wait()
			return batch{team.reg, []*Loop{l}}
		},
	}
	for _, name := range []string{"one loop", "two loops", "budgeted pair", "aid team loop"} {
		b := cases[name]()
		got, err := b.reg.BuildRecord(b.loops...)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRecord(t, b.reg, b.loops...)
		if name == "aid team loop" && want.Digest().Loops[0].SFSamples == 0 {
			t.Fatalf("%s: %d phases and none publishes an SF, the case checks no SF", name, len(want.Phases))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BuildRecord's record differs from the reference's: %d/%d events, %d/%d phases, %d/%d intervals",
				name, len(got.Events), len(want.Events), len(got.Phases), len(want.Phases), len(got.Timeline), len(want.Timeline))
		}
	}
}

// TestBuildRecordSFLastIsEstimate: a captured record keeps no final SF
// estimate of its own, because the phases already hold it: each loop's last
// published SF table is the estimate its Outcome reports, for an AID team
// loop and for an AID-static and an AID-dynamic loop that share a 1B+1S
// fleet (50 us iterations, so that both workers sample both loops; see
// TestRegistrySFEstimateSurfaced).
func TestBuildRecordSFLastIsEstimate(t *testing.T) {
	team := newTestTeam(t, TeamConfig{NThreads: 4})
	aid, err := team.reg.Submit(LoopRequest{Name: "aid", N: 20000, Capture: true,
		Schedule: core.Schedule{Kind: core.KindAIDStatic}, Body: func(int, int64, int64) { runtime.Gosched() }})
	if err != nil {
		t.Fatal(err)
	}
	aid.Wait()
	fleet := newFleet1B1S(t)
	defer fleet.Close()
	spin := func(_ int, lo, hi int64) {
		for start := time.Now(); time.Since(start) < time.Duration(hi-lo)*50*time.Microsecond; {
		}
	}
	var pair []*Loop
	for _, sched := range []core.Schedule{{Kind: core.KindAIDStatic}, {Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}} {
		l, err := fleet.Submit(LoopRequest{Name: sched.Kind.String(), N: 200, Capture: true, Schedule: sched, Body: spin})
		if err != nil {
			t.Fatal(err)
		}
		pair = append(pair, l)
	}
	for _, l := range pair {
		l.Wait()
	}
	for _, c := range []struct {
		reg   *Registry
		loops []*Loop
	}{{team.reg, []*Loop{aid}}, {fleet, pair}} {
		rec, err := c.reg.BuildRecord(c.loops...)
		if err != nil {
			t.Fatal(err)
		}
		for li, d := range rec.Digest().Loops {
			want := c.loops[li].Wait().SFEstimate
			if want == nil {
				t.Fatalf("loop %q published no SF estimate: the case checks nothing", d.Name)
			}
			if !slices.Equal(d.SFLast, want) {
				t.Errorf("loop %q: last published SF %v, Outcome.SFEstimate %v", d.Name, d.SFLast, want)
			}
		}
	}
}

// TestBuildRecordEventBytes: BuildRecord stores a record's events once, and
// a one-loop record's timeline once. Two unbudgeted captured loops (a record
// of two loops carries no timeline) of n events in all cost one n-event
// array, which the Recorder sizes exactly from the tapes, and little besides;
// a merge that gathers the tapes into an array of its own and copies it into
// the Recorder costs two. One loop of n events carries about 2n intervals, a
// Sched and a Running one per grant, so its record costs one event array and
// Record.Timeline, laid out straight from the tapes (nine tenths of an
// array, at 32 bytes an interval against 72 an event): about 1.9 arrays.
// Copying the intervals into per-thread lists of exactly the tapes' lengths
// first makes it 2.6, and lists that grow by doubling 5.4.
func TestBuildRecordEventBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		loops int
		bound float64
	}{
		{2, 1.3},
		{1, 2.0},
	} {
		reg, loops, rec := capturedLoops(t, c.loops)
		if (c.loops == 1) != (len(rec.Timeline) > 0) {
			t.Fatalf("a record of %d loops holds %d intervals", c.loops, len(rec.Timeline))
		}
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := reg.BuildRecord(loops...); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		arrays := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(uintptr(len(rec.Events))*unsafe.Sizeof(trace.ChunkEvent{}))
		if arrays > c.bound {
			t.Errorf("BuildRecord of %d loops, %d events and %d intervals allocates %.2f event arrays, want at most %.1f",
				c.loops, len(rec.Events), len(rec.Timeline), arrays, c.bound)
		}
		t.Logf("%d loops, %d events, %d intervals: %.2f event arrays", c.loops, len(rec.Events), len(rec.Timeline), arrays)
	}
}

// capturedLoops runs n captured dynamic,1 loops of 20 000 empty iterations
// one after the other on a new fleet of two workers, closed when the test
// ends, and returns the fleet, the loops and their record.
func capturedLoops(t *testing.T, n int) (*Registry, []*Loop, *trace.Record) {
	t.Helper()
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	var loops []*Loop
	for i := 0; i < n; i++ {
		l, err := reg.Submit(LoopRequest{Name: "fine", N: 20_000, Capture: true,
			Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 1}, Body: func(_ int, _, _ int64) {}})
		if err != nil {
			t.Fatal(err)
		}
		l.Wait()
		loops = append(loops, l)
	}
	rec, err := reg.BuildRecord(loops...)
	if err != nil {
		t.Fatal(err)
	}
	return reg, loops, rec
}

// TestCaptureBudgetBounded pins the sampling recorder's contract: the record
// of a captured loop submitted with an event budget never holds more than
// CaptureMaxEvents events, head and tail are retained, and compaction
// preserves the iteration total while (with a fine chunk) reducing the
// event count.
func TestCaptureBudgetBounded(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const n, budget = 50000, 64
	l, err := reg.Submit(LoopRequest{
		Name: "budgeted", N: n, Capture: true, CaptureMaxEvents: budget,
		Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8},
		Body:     func(_ int, _, _ int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := l.Wait()
	rec, err := reg.BuildRecord(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) > budget {
		t.Fatalf("budgeted record holds %d events, budget %d", len(rec.Events), budget)
	}
	if len(rec.Events) == 0 {
		t.Fatal("budgeted record holds no events")
	}
	// Head retention: the stream still starts in the loop's opening region
	// (dynamic grants ranges in claim order, so early events carry low Lo);
	// tail retention: it still ends in the barrier-convergence region (a
	// retirement or a grant from the top of the range).
	if first := rec.Events[0]; first.Lo >= n/2 {
		t.Errorf("head not retained: first event %+v", first)
	}
	last := rec.Events[len(rec.Events)-1]
	if !last.Retire && last.Hi <= n/2 {
		t.Errorf("tail not retained: last event %+v", last)
	}
	// Iteration totals from the per-worker cells are exact regardless of
	// what the budget dropped.
	var total int64
	for _, it := range st.Iters {
		total += it
	}
	if total != n {
		t.Fatalf("executed %d iterations, want %d", total, n)
	}
}

// TestCaptureCompactionPreservesCoverage: a budget compacts the stream, and
// with one larger than the uncompacted stream (n/4 grants plus a retirement
// per worker) nothing is trimmed, so the merged grant stream must still tile
// [0, n) exactly once — merges only coarsen contiguous runs, they never lose
// or duplicate iterations.
func TestCaptureCompactionPreservesCoverage(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const n = 20000
	l, err := reg.Submit(LoopRequest{
		Name: "compacted", N: n, Capture: true, CaptureMaxEvents: n,
		Schedule: core.Schedule{Kind: core.KindStatic, Chunk: 4},
		Body:     func(_ int, _, _ int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Wait()
	rec, err := reg.BuildRecord(l)
	if err != nil {
		t.Fatal(err)
	}
	retires := coverageFromEvents(t, rec.Events, n)
	if retires != 4 {
		t.Errorf("%d retire events, want one per worker", retires)
	}
	// static,4 hands each worker a long run of contiguous chunks;
	// compaction must collapse them well below one event per chunk.
	if max := n/4 + 8; len(rec.Events) >= max {
		t.Errorf("compaction kept %d events for %d chunk grants", len(rec.Events), n/4)
	}
}

// TestSubmitRejectsNegativeCaptureBudget covers the validation path, and
// that it comes before arm: a refused request takes neither the released
// loop's ledger nor its spare scheduler, so the next Submit of the schedule
// re-arms the released one.
func TestSubmitRejectsNegativeCaptureBudget(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}
	body := func(_ int, _, _ int64) {}
	_, released := runHolding(t, reg, LoopRequest{N: 10, Schedule: s, Body: body})
	if _, err := reg.Submit(LoopRequest{N: 10, Schedule: s, CaptureMaxEvents: -1,
		Body: body}); err == nil {
		t.Error("Submit accepted a negative capture budget")
	}
	reg.mu.Lock()
	nledgers := len(reg.ledgers)
	reg.mu.Unlock()
	if nledgers != 1 {
		t.Errorf("the registry holds %d spare ledgers after a refused Submit, want 1", nledgers)
	}
	if _, got := runHolding(t, reg, LoopRequest{N: 10, Schedule: s, Body: body}); got != released {
		t.Error("the Submit after a refusal built a new scheduler instead of re-arming the released one")
	}
}

// TestBuildRecordRejectsUncaptured: a loop without capture cannot be
// assembled into a record.
func TestBuildRecordRejectsUncaptured(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	l, err := reg.Submit(LoopRequest{N: 100, Body: func(_ int, _, _ int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	l.Wait()
	if _, err := reg.BuildRecord(l); err == nil {
		t.Error("BuildRecord accepted an uncaptured loop")
	}
}
