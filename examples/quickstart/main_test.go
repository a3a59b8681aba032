package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunOutput: the two simulated lines are virtual time, so they are
// pinned to the digit, and AID-static's makespan is below static's, the
// asymmetry-aware win the example exists to show. The real ParallelFor's sum
// is the closed form: an iteration lost or run twice by the schedule moves it.
func TestRunOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), out.String())
	}
	makespan := make([]float64, 2)
	for i, want := range []string{
		"static       completed 4096 iterations in   84.664 ms (virtual)",
		"AID-static   completed 4096 iterations in   63.006 ms (virtual)",
	} {
		if lines[i] != want {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], want)
		}
		var name string
		var n int
		if _, err := fmt.Sscanf(lines[i], "%s completed %d iterations in %g ms (virtual)", &name, &n, &makespan[i]); err != nil {
			t.Fatalf("%q: %v", lines[i], err)
		}
	}
	if makespan[1] >= makespan[0] {
		t.Errorf("AID-static took %v ms, static %v ms; want AID-static faster", makespan[1], makespan[0])
	}
	var sum, want int64
	if _, err := fmt.Sscanf(lines[2], "real ParallelFor: sum of 0..99999 = %d (want %d)", &sum, &want); err != nil {
		t.Fatalf("%q: %v", lines[2], err)
	}
	if sum != 4999950000 || want != sum {
		t.Errorf("%q: want the sum 4999950000", lines[2])
	}
}
