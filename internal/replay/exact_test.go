package replay

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestExactReplayIsTheRecord: an exact replay of a faithful sim record
// checks each event as the engine makes it and hands back the input's own
// event array — for a team loop, a multi-loop burst, a fleet whose arrivals
// cut the workers' runs and a team with a migration, each with and without a
// timeline. A record the replay makes fewer calls than is refused by its
// event count, and an rt record, whose wall-clock times a replay does not
// reproduce, gets an array of its own.
func TestExactReplayIsTheRecord(t *testing.T) {
	migrate := sim.Migration{AtNs: 1_000_000, Tid: 0, ToCPU: amp.PlatformA().NumCores() - 1}
	cases := []struct {
		name   string
		record func(withTrace bool) *trace.Record
	}{
		{"team", func(w bool) *trace.Record { return recordSim(t, "aid-dynamic,1,5", epSpec(), w) }},
		{"burst", func(w bool) *trace.Record { return recordRun(t, "aid-dynamic,1,5", burstSpecs(), nil, w) }},
		{"arrivals", func(w bool) *trace.Record { return recordRun(t, "dynamic,4", arrivalSpecs(), fair.NewFCFS(), w) }},
		{"migration", func(w bool) *trace.Record {
			return recordRun(t, "aid-static", []sim.LoopSpec{epSpec()}, nil, w, migrate)
		}},
	}
	for _, c := range cases {
		for _, withTrace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/timeline=%v", c.name, withTrace), func(t *testing.T) {
				rec := roundTrip(t, c.record(withTrace))
				if c.name == "migration" && (len(rec.Migrations) != 1 || rec.MakespanNs <= migrate.AtNs) {
					t.Fatalf("the run ends at %d ns with migrations %+v, want one inside it", rec.MakespanNs, rec.Migrations)
				}
				r, err := Exact(rec)
				if err != nil {
					t.Fatal(err)
				}
				got := r.Record.Events
				if len(got) != len(rec.Events) {
					t.Fatalf("replayed %d events, recorded %d", len(got), len(rec.Events))
				}
				for i := range got {
					if got[i] != rec.Events[i] {
						t.Fatalf("event %d: replayed %+v, recorded %+v", i, got[i], rec.Events[i])
					}
				}
				if &got[0] != &rec.Events[0] {
					t.Error("the replay of a faithful record holds a copy of its events")
				}

				// One more event than the replay makes: the last one again,
				// a second retire of its worker, which no engine asks for.
				last := rec.Events[len(rec.Events)-1]
				last.Seq++
				rec.Events = append(rec.Events, last)
				if _, err := Exact(rec); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("replay: %d events, recorded %d", len(got), len(rec.Events))) {
					t.Errorf("Exact of a record with an event no engine makes: %v, want the event counts", err)
				}
			})
		}
	}

	t.Run("rt", func(t *testing.T) {
		team, err := rt.NewTeam(rt.TeamConfig{NThreads: 2, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8}})
		if err != nil {
			t.Fatal(err)
		}
		defer team.Close()
		captured, err := team.RecordParallelFor("rt-loop", 512, func(int, int64, int64) { runtime.Gosched() })
		if err != nil {
			t.Fatal(err)
		}
		rec := roundTrip(t, captured)
		r, err := Exact(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Record.Events; len(got) != len(rec.Events) || &got[0] == &rec.Events[0] {
			t.Errorf("the replay of an rt record holds %d events in the input's array (%v), want %d of its own", len(got), &got[0] == &rec.Events[0], len(rec.Events))
		}
	})
}

// TestExactCopiesOnFirstDifference: the replay's recorder copies the
// record's events from the first one the replay makes differently. (a) A
// field the replay recomputes, not reads, is changed at event k: the replay
// succeeds, holds its own value at k and the record's at every other index,
// and leaves the record as it was. (b) Event k's time moves 1 ns later,
// keeping the record's order: the replay fails naming event k.
func TestExactCopiesOnFirstDifference(t *testing.T) {
	base := recordSim(t, "aid-dynamic,1,5", epSpec(), false)
	k := len(base.Events) / 2
	for base.Events[k].Retire || base.Events[k].TimeNs+1 >= base.Events[k+1].TimeNs {
		k++
	}

	rec := roundTrip(t, base)
	want := slices.Clone(rec.Events)
	rec.Events[k].ExecNs++
	in := slices.Clone(rec.Events)
	r, err := Exact(rec)
	if err != nil {
		t.Fatalf("Exact with event %d's ExecNs changed: %v", k, err)
	}
	got := r.Record.Events
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, recorded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d: replayed %+v, want %+v", i, got[i], want[i])
		}
	}
	if &got[0] == &rec.Events[0] {
		t.Error("the replay shares the events of a record it did not reproduce")
	}
	if !slices.Equal(rec.Events, in) {
		t.Error("Exact changed the record it replayed")
	}

	rec = roundTrip(t, base)
	rec.Events[k].TimeNs++
	if _, err := Exact(rec); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("event %d diverged", k)) {
		t.Errorf("Exact with event %d 1 ns late: %v, want an error naming event %d", k, err, k)
	}
}

// TestExactAllocs: an exact replay of a faithful sim record reads the
// record's events in place — scripts and coverage hold indices into them
// and the replay's recorder stores none — so it allocates under half an
// event array besides the simulator's own state.
func TestExactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	specs := burstSpecs()
	for i := range specs {
		specs[i].NI *= 3
	}
	rec := roundTrip(t, recordRun(t, "dynamic,1", specs, nil, false))
	if len(rec.Events) < 20_000 {
		t.Fatalf("the record holds %d events, want at least 20 000", len(rec.Events))
	}
	got := allocatedBytes(3, func() {
		if _, err := Exact(rec); err != nil {
			t.Fatal(err)
		}
	})
	arrays := got / (float64(len(rec.Events)) * float64(unsafe.Sizeof(trace.ChunkEvent{})))
	if arrays > 0.5 {
		t.Errorf("Exact of %d events allocates %.0f bytes, %.2f event arrays, want at most 0.5", len(rec.Events), got, arrays)
	}
	t.Logf("Exact of %d events: %.0f bytes, %.2f event arrays", len(rec.Events), got, arrays)
}

// allocatedBytes is the mean number of bytes one call of f allocates on
// one P, after a first call that warms whatever f caches.
func allocatedBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
