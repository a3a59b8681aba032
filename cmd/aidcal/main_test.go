package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestRunSmoke: on Platform A the report has one line per workload, in
// workloads.All order, and an unknown platform is an error for main to
// report rather than an exit from inside the loop.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "A"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	all := workloads.All()
	if len(lines) != len(all) {
		t.Fatalf("%d lines for %d workloads:\n%s", len(lines), len(all), out.String())
	}
	for i, w := range all {
		if !strings.HasPrefix(lines[i], w.Name+" ") || !strings.Contains(lines[i], "offlineSF[") || !strings.Contains(lines[i], "onlineSF[") {
			t.Errorf("line %d for %s: %q", i, w.Name, lines[i])
		}
		if w.Name == "EP" && !strings.Contains(lines[i], "loops= 1  offlineSF[ 1.93  1.93]") {
			t.Errorf("EP's single loop should read offline SF 1.93 on Platform A: %q", lines[i])
		}
	}

	out.Reset()
	if err := run(&out, "no-such-platform"); err == nil {
		t.Error("an unknown platform was accepted")
	}
	if out.Len() != 0 {
		t.Errorf("a failed run printed %q", out.String())
	}
}
