package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// replayHead is the first three lines the example prints: the recorded
// run, its exact replay and the what-if run, all in virtual time, so pinned
// to the digit.
const replayHead = `recorded: ep-main under dynamic/1, makespan 198839684 ns, 16392 grant events
exact replay: makespan 198839684 ns (recorded 198839684) — verified identical
what-if AID-dynamic: makespan 197677732 ns (-0.6% vs recorded)
`

// TestRunReplaysExactly: the exact replay of a simulated record reproduces
// its makespan to the nanosecond, as both the run's own result and the
// record read back from the wire say, and the what-if candidate is no
// regression.
func TestRunReplaysExactly(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(out.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("output:\n%s", out.String())
	}
	var ran, replayed, recorded int64
	if _, err := fmt.Sscanf(lines[0][strings.Index(lines[0], "makespan"):], "makespan %d ns", &ran); err != nil {
		t.Fatalf("%q: %v", lines[0], err)
	}
	if _, err := fmt.Sscanf(lines[1], "exact replay: makespan %d ns (recorded %d)", &replayed, &recorded); err != nil {
		t.Fatalf("%q: %v", lines[1], err)
	}
	if replayed != recorded || recorded != ran {
		t.Errorf("run %d ns, recorded %d ns, exact replay %d ns: want one makespan", ran, recorded, replayed)
	}
	if head := strings.Join(lines[:3], ""); head != replayHead {
		t.Errorf("virtual lines moved; got:\n%s\nwant:\n%s", head, replayHead)
	}
	if !strings.HasSuffix(out.String(), "no regressions (tolerance 2.0%)\n") {
		t.Errorf("what-if diff flags a regression:\n%s", out.String())
	}
}
