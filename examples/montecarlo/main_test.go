package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernels"
)

// TestRunPiIdenticalAcrossSchedules: partitioning the iterations cannot
// change the sampled stream, so every schedule of the real section prints
// the estimate a serial pass over the whole range gives. A lost or doubled
// chunk moves the sixth decimal.
func TestRunPiIdenticalAcrossSchedules(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("pi = %.6f ", 4*float64(kernels.MonteCarloPiRange(0, samples, 2024))/samples)
	section, _, _ := strings.Cut(out.String(), "\n\n")
	lines := strings.Split(section, "\n")[1:]
	if len(lines) != 6 {
		t.Fatalf("%d schedule lines in the real section, want 6:\n%s", len(lines), section)
	}
	for _, line := range lines {
		if !strings.Contains(line, want) {
			t.Errorf("%q, want %q", line, want)
		}
	}
}
