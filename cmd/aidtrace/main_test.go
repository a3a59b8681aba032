package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
