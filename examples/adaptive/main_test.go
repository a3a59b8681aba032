package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunLabelsDecisions: the report ends in one decision line per loop phase
// of the program, the loops named in the program's order (uniform, irregular,
// uniform, irregular), and AID-auto's verdict on each agrees with what the
// loop is.
func TestRunLabelsDecisions(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	_, decisions, found := strings.Cut(out.String(), "AID-auto per-loop decisions:\n")
	if !found {
		t.Fatalf("no decision section:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimRight(decisions, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d decision lines for 4 loop phases:\n%s", len(lines), decisions)
	}
	for i, line := range lines {
		name, verdict := "uniform-kernel", "uniform   -> hybrid path"
		if i%2 == 1 {
			name, verdict = "irregular-kernel", "irregular -> dynamic path"
		}
		f := strings.Fields(line)
		if len(f) < 3 || f[2] != name || !strings.Contains(line, verdict) || !strings.HasSuffix(line, "(decided=true)") {
			t.Errorf("line %d = %q, want loop %s with verdict %q", i, line, name, verdict)
		}
	}
}
