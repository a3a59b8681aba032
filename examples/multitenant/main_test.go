package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRunCoversEveryLoop: three loops share one fleet, and each one's
// workers run exactly its trip count, read from the iteration counts its
// Wait returns. Latencies are wall-clock and only their syntax is checked:
// which loop releases first is not asserted, since the host decides.
func TestRunCoversEveryLoop(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("%d lines, want 6:\n%s", len(lines), out.String())
	}
	want := map[string]int64{"batch-a": 300_000, "batch-b": 300_000, "interactive": 2_000}
	for _, line := range lines[3:] {
		var name, latency string
		var ran, n int64
		if _, err := fmt.Sscanf(line, "%s done after %s %d/%d iterations", &name, &latency, &ran, &n); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if _, err := time.ParseDuration(strings.TrimSuffix(latency, ",")); err != nil {
			t.Errorf("%q: latency %v", line, err)
		}
		if n != want[name] || ran != n {
			t.Errorf("%q: want %d/%d iterations for %s", line, want[name], want[name], name)
		}
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("no line for %v:\n%s", want, out.String())
	}
}
