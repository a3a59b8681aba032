package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunConservesHeat: the 20 diffusion steps never reach the grid's edge,
// so the real row-parallel run keeps the 1000 units it started with, up to
// rounding. A row lost or run twice by the schedule changes the total by
// whole units.
func TestRunConservesHeat(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(out.String(), "\n")
	var w, h, steps int
	var total, want, diff float64
	if _, err := fmt.Sscanf(line, "real stencil: %dx%d grid, %d steps, heat conserved: %g (want %g, err %g)",
		&w, &h, &steps, &total, &want, &diff); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	if want != 1000 || total != want || !(diff < 1e-9) {
		t.Errorf("%q: heat %v of %v, error %v; want it conserved within 1e-9", line, total, want, diff)
	}
}
