package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// TestReplayDeterminism is the record & replay subsystem's end-to-end gate:
// record a simulated run, exact-replay it twice
// — each replay verifies event times and makespan against the record — and
// require the two replays to serialize byte-identically and to diff clean.
func TestReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if err := runRecord(rec, "EP", "aid-dynamic,1,5", "BS", "A", "sim"); err != nil {
		t.Fatal(err)
	}
	var replays [2][]byte
	var paths [2]string
	for i := range replays {
		paths[i] = filepath.Join(dir, fmt.Sprintf("replay%d.jsonl", i+1))
		if err := runReplay(rec, paths[i]); err != nil {
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
	if err := runDiff(paths[0]+","+paths[1], 2.0); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedRecordLeavesFile: every mode writes its record with
// trace.WriteFile, so a record the encoder refuses (a NaN cost has no JSON
// form) leaves the file already at -record/-o byte for byte as it was, and no
// staging file next to it.
func TestRefusedRecordLeavesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.jsonl")
	if err := runRecord(path, "EP", "dynamic,4", "SB", "A", "sim"); err != nil {
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
