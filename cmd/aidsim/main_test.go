package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestRunWithMigration drives the command's whole path once: Platform A,
// every schedule, a cross-cluster migration of thread 0 (CPU 7 -> CPU 1)
// early in the loop, the timeline rendered. Every schedule must report the
// full trip count.
func TestRunWithMigration(t *testing.T) {
	const ni = 4096
	var out bytes.Buffer
	if err := run(&out, "A", 0, "BS", "all", ni, 100000, 0, 0.5, 0.3, 0.2, true, "0:1:1000000"); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if got, want := strings.Count(out.String(), fmt.Sprintf("iterations %d/%d\n", ni, ni)), 7; got != want {
		t.Errorf("%d of %d schedules report full coverage:\n%s", got, want, out.String())
	}
	// A chunk the schedule grammar accepts may exceed any trip count.
	out.Reset()
	if err := run(&out, "A", 0, "BS", "dynamic,9223372036854775807", 100, 100000, 0, 0.5, 0.3, 0.2, false, ""); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "iterations 100/100\n") {
		t.Errorf("max-chunk dynamic does not report 100/100:\n%s", out.String())
	}
	if err := run(&out, "A", 0, "BS", "static", ni, 100000, 0, 0.5, 0.3, 0.2, false, "0:99:0"); err == nil {
		t.Error("migration to a CPU the platform does not have was accepted")
	}
}
