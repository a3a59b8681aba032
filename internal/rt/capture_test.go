package rt

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

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

// TestTeamParallelForCapturesTimeline is the satellite check: the real
// executor now produces a trace.Trace timeline, where before only the
// simulator did.
func TestTeamParallelForCapturesTimeline(t *testing.T) {
	team := newTestTeam(t, TeamConfig{NThreads: 4, Schedule: core.Schedule{Kind: core.KindAIDStatic}})
	// The body yields after each chunk: with a no-op body on GOMAXPROCS=1
	// the first worker drains the whole pool before the rest of the fleet
	// wakes, sampling never completes, and no SF transition exists to
	// capture. Cooperative rotation guarantees every worker participates.
	const n = 20000
	var ran atomic.Int64
	_, stats, err := team.RecordParallelFor("capture", n, func(_ int, lo, hi int64) {
		ran.Add(hi - lo)
		runtime.Gosched()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d iterations, want %d", ran.Load(), n)
	}
	if stats.Trace == nil {
		t.Fatal("capture produced no timeline")
	}
	if got := stats.Trace.NThreads(); got != 4 {
		t.Fatalf("timeline has %d threads, want 4", got)
	}
	totalRun := int64(0)
	for tid := 0; tid < 4; tid++ {
		totalRun += stats.Trace.TimeIn(tid, trace.Running)
		if stats.Trace.TimeIn(tid, trace.Sched) <= 0 {
			t.Errorf("thread %d recorded no Sched time", tid)
		}
	}
	if totalRun <= 0 {
		t.Error("timeline recorded no Running time")
	}
	if stats.End <= stats.Start {
		t.Errorf("loop bounds [%d,%d] not increasing", stats.Start, stats.End)
	}
	if retires := coverageFromEvents(t, stats.Events, n); retires != 4 {
		t.Errorf("%d retire events, want one per worker", retires)
	}
	// AID-static publishes exactly one SF transition.
	found := false
	for _, p := range stats.Phases {
		if p.Kind == "sf-published" && len(p.SF) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("no sf-published phase captured: %+v", stats.Phases)
	}
	// Events must be time-ordered with per-worker sequence preserved.
	perTid := map[int32]int64{}
	for i, ev := range stats.Events {
		if i > 0 && ev.TimeNs < stats.Events[i-1].TimeNs {
			t.Fatalf("event %d out of time order", i)
		}
		if last, ok := perTid[ev.Tid]; ok && ev.Seq <= last {
			t.Fatalf("worker %d capture sequence not increasing", ev.Tid)
		}
		perTid[ev.Tid] = ev.Seq
	}
}

// TestTeamCaptureOffByDefault: a loop that is not recorded must not pay for
// tapes, and its stats carry no timeline.
func TestTeamCaptureOffByDefault(t *testing.T) {
	team := newTestTeam(t, TeamConfig{NThreads: 2})
	stats, _, err := team.run("parallel-for", 100, func(_ int, _, _ int64) {}, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace != nil || stats.Events != nil || stats.Phases != nil {
		t.Error("capture fields populated without Capture")
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
	var buf bytes.Buffer
	if err := trace.EncodeJSONL(&buf, rec); err != nil {
		t.Fatalf("record does not encode: %v", err)
	}
	if _, err := trace.DecodeJSONL(&buf); err != nil {
		t.Fatalf("record does not decode: %v", err)
	}
}

// TestCaptureBudgetBounded pins the sampling recorder's contract: a
// captured loop submitted with an event budget never publishes more than
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
	if len(st.Events) > budget {
		t.Fatalf("budgeted capture published %d events, budget %d", len(st.Events), budget)
	}
	if len(st.Events) == 0 {
		t.Fatal("budgeted capture published no events")
	}
	// Head retention: the stream still starts in the loop's opening region
	// (dynamic grants ranges in claim order, so early events carry low Lo);
	// tail retention: it still ends in the barrier-convergence region (a
	// retirement or a grant from the top of the range).
	if first := st.Events[0]; first.Lo >= n/2 {
		t.Errorf("head not retained: first event %+v", first)
	}
	last := st.Events[len(st.Events)-1]
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
	st := l.Wait()
	retires := coverageFromEvents(t, st.Events, n)
	if retires != 4 {
		t.Errorf("%d retire events, want one per worker", retires)
	}
	// static,4 hands each worker a long run of contiguous chunks;
	// compaction must collapse them well below one event per chunk.
	if max := n/4 + 8; len(st.Events) >= max {
		t.Errorf("compaction kept %d events for %d chunk grants", len(st.Events), n/4)
	}
}

// TestSubmitRejectsNegativeCaptureBudget covers the validation path, and
// that it comes before the free list: a refused request takes no scheduler
// off it, so the next Submit of the schedule still re-arms the pooled one.
func TestSubmitRejectsNegativeCaptureBudget(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}
	body := func(_ int, _, _ int64) {}
	l, err := reg.Submit(LoopRequest{N: 10, Schedule: s, Body: body})
	if err != nil {
		t.Fatal(err)
	}
	l.Wait()
	reg.mu.Lock()
	nfree := len(reg.free)
	var pooled core.Scheduler
	if nfree == 1 {
		pooled = reg.free[0].sched
	}
	reg.mu.Unlock()
	if nfree != 1 {
		t.Fatalf("free list holds %d schedulers after one released loop, want 1", nfree)
	}

	if _, err := reg.Submit(LoopRequest{N: 10, Schedule: s, CaptureMaxEvents: -1,
		Body: body}); err == nil {
		t.Error("Submit accepted a negative capture budget")
	}
	reg.mu.Lock()
	nfree = len(reg.free)
	reg.mu.Unlock()
	if nfree != 1 {
		t.Errorf("free list holds %d schedulers after a refused Submit, want 1", nfree)
	}

	// The gate holds the loop open while its scheduler is read.
	gate := make(chan struct{})
	l, err = reg.Submit(LoopRequest{N: 10, Schedule: s, Body: func(int, int64, int64) { <-gate }})
	if err != nil {
		t.Fatal(err)
	}
	reg.mu.Lock()
	got := l.sched
	reg.mu.Unlock()
	close(gate)
	l.Wait()
	if got != pooled {
		t.Error("the Submit after a refusal built a new scheduler instead of re-arming the pooled one")
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
