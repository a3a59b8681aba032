package replay

import (
	"bytes"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/trace"
)

// captureRun executes a small multi-loop workload with capture on and
// returns its run record. A positive budget applies the sampled service
// recorder's reductions (cmd/aidserve -sample): compaction, then the event
// budget; 0 keeps the full stream.
func captureRun(t *testing.T, budget int) *trace.Record {
	t.Helper()
	reg, err := rt.NewRegistry(rt.RegistryConfig{NThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	var handles []*rt.Loop
	for i := 0; i < 3; i++ {
		h, err := reg.Submit(rt.LoopRequest{
			N:                4000,
			Schedule:         core.Schedule{Kind: core.KindDynamic, Chunk: 16},
			Body:             func(_ int, lo, hi int64) {},
			Capture:          true,
			CaptureMaxEvents: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		h.Wait()
	}
	rec, err := reg.BuildRecord(handles...)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// A compacted, budget-trimmed record — what an open-loop service run
// stores for its sampled loops — must still be internally consistent:
// identical inputs diff clean, before and after a serialization roundtrip.
func TestSampledRecordSelfDiffClean(t *testing.T) {
	rec := captureRun(t, 48)
	if rep := Diff(rec, rec, 1.0); rep.Regressions > 0 {
		t.Fatalf("sampled record fails self-diff:\n%s", rep)
	}
	dec, err := trace.DecodeJSONL(bytes.NewReader(encode(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	if rep := Diff(rec, dec, 1.0); rep.Regressions > 0 {
		t.Fatalf("decoded sampled record diffs against its source:\n%s", rep)
	}
}

// Compacting a record's event stream coarsens grant granularity but must
// not move any cost total the diff compares: pool traffic and per-thread
// execution time stay exact, and the chunk count only shrinks.
func TestCompactionPreservesCostTotals(t *testing.T) {
	full := captureRun(t, 0)
	compacted := *full
	compacted.Events = trace.CompactEvents(append([]trace.ChunkEvent(nil), full.Events...))
	if len(compacted.Events) >= len(full.Events) {
		t.Fatalf("compaction kept %d of %d events; workload too fine to merge anything",
			len(compacted.Events), len(full.Events))
	}
	rep := Diff(full, &compacted, 0.001)
	if rep.Regressions > 0 {
		t.Fatalf("compaction regressed a cost metric:\n%s", rep)
	}
	for _, m := range rep.Metrics {
		switch m.Name {
		case "pool_accesses", "makespan_ns", "running_ns_total":
			if m.A != m.B {
				t.Fatalf("%s changed under compaction: %v -> %v", m.Name, m.A, m.B)
			}
		}
	}
}

// A compacted event's call charges are int16, as the scheduler reports
// them, so compaction must split a run of grants before their sum leaves
// that range: 40 000 contiguous one-access grants of one worker become two
// events, not one that a replay could only charge 32 767 accesses.
func TestCompactionKeepsPoolAccessesExact(t *testing.T) {
	const n = 40000
	rec := &trace.Record{
		Version:  trace.RecordVersion,
		Engine:   "rt",
		Platform: trace.PlatformRecordOf(amp.PlatformA()),
		NThreads: 1,
		Binding:  "BS",
		Loops: []trace.LoopRecord{{Name: "l", NI: n, Scheduler: "dynamic",
			Cost: &trace.CostRecord{Kind: "uniform", Base: 100}}},
	}
	for i := int64(0); i < n; i++ {
		rec.Events = append(rec.Events, trace.ChunkEvent{Seq: i, TimeNs: i, Lo: i, Hi: i + 1,
			Cost: 100, ExecNs: 50, PoolAccesses: 1})
	}
	rec.Events = trace.CompactEvents(rec.Events)
	if len(rec.Events) != 2 {
		t.Fatalf("compaction left %d events, want 2", len(rec.Events))
	}
	var pool int
	for _, ev := range rec.Events {
		pool += int(ev.PoolAccesses)
	}
	if pool != n || rec.Events[0].Hi != rec.Events[1].Lo || rec.Events[1].Hi != n {
		t.Fatalf("compacted events %+v: %d pool accesses over [0,%d), want %d over [0,%d)",
			rec.Events, pool, rec.Events[1].Hi, n, n)
	}
	res, err := Exact(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Results[0].PoolAccesses; got != n {
		t.Fatalf("exact replay charged %d pool accesses, the record holds %d", got, n)
	}
}
