package replay

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/rt"
	"repro/internal/trace"
)

// captureRun executes a small multi-loop workload with capture on and
// returns its run record. Compaction and the event budget are the sampled
// service recorder's reductions (cmd/aidserve -sample).
func captureRun(t *testing.T, compact bool, budget int) *trace.Record {
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
			CaptureCompact:   compact,
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
	rec := captureRun(t, true, 48)
	if rep := Diff(rec, rec, 1.0); rep.Regressions > 0 {
		t.Fatalf("sampled record fails self-diff:\n%s", rep)
	}
	var b bytes.Buffer
	if err := trace.EncodeJSONL(&b, rec); err != nil {
		t.Fatal(err)
	}
	dec, err := trace.DecodeJSONL(&b)
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
	full := captureRun(t, false, 0)
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
