package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the committed golden files from this build's output")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update. Regenerate (go test ./cmd/aidtrace -run Golden -update) only for a
// deliberate change of what the simulator computes or the chart draws, and
// say why.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n%s", path, got)
	}
}

// TestTraceGolden pins `aidtrace -app EP -sched aid-hybrid,80`: the title
// with the completion stamp, the Gantt chart and its summary line.
func TestTraceGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "EP", "aid-hybrid,80", "BS", "A"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ep_aid_hybrid80.txt", out.Bytes())
}

// TestReplayGolden pins what `aidtrace -replay` prints for a recorded sim
// run: the verification lines and the chart drawn from the replayed
// record's timeline. The record's directory is cut from the output.
func TestReplayGolden(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if err := runRecord(io.Discard, rec, "EP", "aid-dynamic,1,5", "BS", "A", "sim"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runReplay(&out, rec, ""); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "replay_ep_aid_dynamic.txt", []byte(strings.ReplaceAll(out.String(), dir+string(filepath.Separator), "")))
}

// TestReplayDeterminism is the record & replay subsystem's end-to-end gate:
// record a simulated run, exact-replay it twice
// — each replay verifies event times and makespan against the record — and
// require the two replays to serialize byte-identically and to diff clean.
func TestReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if err := runRecord(io.Discard, rec, "EP", "aid-dynamic,1,5", "BS", "A", "sim"); err != nil {
		t.Fatal(err)
	}
	var replays [2][]byte
	var paths [2]string
	for i := range replays {
		paths[i] = filepath.Join(dir, fmt.Sprintf("replay%d.jsonl", i+1))
		if err := runReplay(io.Discard, rec, paths[i]); err != nil {
			t.Fatal(err)
		}
		var err error
		if replays[i], err = os.ReadFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(replays[0]) == 0 || !bytes.Equal(replays[0], replays[1]) {
		t.Fatalf("two replays of one record differ (%d vs %d bytes)", len(replays[0]), len(replays[1]))
	}
	if err := runDiff(io.Discard, paths[0]+","+paths[1], 2.0); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedRecordLeavesFile: every mode writes its record with
// trace.WriteFile, so a record the encoder refuses (a NaN cost has no JSON
// form) leaves the file already at -record/-o byte for byte as it was, and no
// staging file next to it.
func TestRefusedRecordLeavesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.jsonl")
	if err := runRecord(io.Discard, path, "EP", "dynamic,4", "SB", "A", "sim"); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.Events[len(rec.Events)/2].Cost = math.NaN()
	if err := trace.WriteFile(path, rec); err == nil {
		t.Fatal("a record with a NaN cost was written")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || !bytes.Equal(before, after) {
		t.Errorf("refused write changed the file: %d bytes before, %d after", len(before), len(after))
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Errorf("refused write left %d files in the directory, want only the record", len(entries))
	}
}

// TestTolRefused: -diff and -whatif refuse a -tol that is negative or not
// finite, before they read a file, so a NaN cannot wave regressions through
// the gate and a negative one cannot fail a record against itself. The
// records of two schedules diff with regressions under the default
// tolerance, and a record diffs clean against itself under zero.
func TestTolRefused(t *testing.T) {
	dir := t.TempDir()
	r, s := filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "s.jsonl")
	if err := runRecord(io.Discard, r, "EP", "static", "BS", "A", "sim"); err != nil {
		t.Fatal(err)
	}
	if err := runRecord(io.Discard, s, "EP", "dynamic,1", "BS", "A", "sim"); err != nil {
		t.Fatal(err)
	}
	if err := runDiff(io.Discard, r+","+s, 2.0); err == nil {
		t.Fatal("records of static and dynamic,1 diff without a regression; the case checks nothing")
	}
	if err := runDiff(io.Discard, r+","+r, 0); err != nil {
		t.Errorf("-tol 0: a record regresses against itself: %v", err)
	}
	for _, tol := range []float64{math.NaN(), -5, math.Inf(1), math.Inf(-1)} {
		want := fmt.Sprintf("-tol %v: want a finite non-negative percentage", tol)
		var out bytes.Buffer
		for mode, err := range map[string]error{
			"diff":   runDiff(&out, r+","+s, tol),
			"whatif": runWhatIf(&out, r, "dynamic,1", "", "", tol),
		} {
			if err == nil || err.Error() != want {
				t.Errorf("-%s -tol %v: error %v, want %q", mode, tol, err, want)
			}
		}
		if out.Len() > 0 {
			t.Errorf("-tol %v: printed a report:\n%s", tol, out.String())
		}
	}
}

// TestWhatIfRefusesBadPlatform: a record whose first cluster lost its core
// type (its "Type" key renamed, so it decodes with a zero frequency) is
// refused with the platform's error when it is rebuilt, not replayed until
// the clock wraps and the timeline panics.
func TestWhatIfRefusesBadPlatform(t *testing.T) {
	dir := t.TempDir()
	r, bad := filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "bad.jsonl")
	if err := runRecord(io.Discard, r, "EP", "aid-dynamic,1,5", "BS", "A", "sim"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(r)
	if err != nil {
		t.Fatal(err)
	}
	renamed := bytes.Replace(data, []byte(`"clusters":[{"Type":`), []byte(`"clusters":[{"Kind":`), 1)
	if bytes.Equal(renamed, data) {
		t.Fatal(`the record spells its first cluster's core type some other way than "clusters":[{"Type":`)
	}
	if err := os.WriteFile(bad, renamed, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = runWhatIf(&out, bad, "aid-static", "", "", 2.0)
	if err == nil || !strings.Contains(err.Error(), "frequency 0 GHz") {
		t.Errorf("-whatif of a record with a typeless cluster: error %v, want the platform's frequency error", err)
	}
}
