package main

import (
	"bytes"
	"os"
	"testing"
)

// TestFig6Golden is the figure-level twin of sim's TestEngineGolden: the
// command's whole path for `-exp fig6 -csv` (21 applications under the seven
// schemes of Fig. 6 on Platform A, through exps and sim.RunProgram) must
// print, byte for byte, what it printed before RunProgram began to reuse one
// scheduler and one engine workspace across a loop's repetitions. The file
// was written by the commit before that change; regenerate it (`go run
// ./cmd/aidbench -exp fig6 -csv > cmd/aidbench/testdata/fig6_A.csv`) only for
// a deliberate change of what the simulator computes.
func TestFig6Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig6_A.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, "fig6", true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fig6 CSV differs from testdata/fig6_A.csv:\n%s", got.String())
	}
	if err := run(&got, "fig99", false); err == nil {
		t.Error("an unknown experiment was accepted")
	}
}
