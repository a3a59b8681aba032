package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestExpGolden is the figure-level twin of sim's TestEngineGolden: every
// `aidbench -exp` must print, byte for byte, its committed golden file. The
// simulator runs in virtual time, so these tables are the one measurement a
// noisy host can gate to the digit: the Fig. 1 and Fig. 4 traces with their
// completion stamps, the Fig. 2 per-loop SF series, Fig. 6/7 normalized
// makespans, Table 2 gains, the Fig. 8 chunk sweep, the Fig. 9 offline-SF
// studies, the guided and hybrid-percentage sweeps, the platform zoo's
// makespan and energy per platform x scheme, and the ablation table.
// fig6_A.csv additionally pins the -csv rendering.
//
// Each file was written by the commit before the one that added its case
// (fig1, fig2 and fig4 by the commands that printed those figures then).
// Regenerate one (`go run ./cmd/aidbench -exp <e> > cmd/aidbench/testdata/<e>.txt`)
// only for a deliberate change of what the simulator computes, and say which
// numbers moved and why.
func TestExpGolden(t *testing.T) {
	cases := []struct {
		exp    string
		csv    bool
		golden string
	}{
		{"fig1", false, "fig1.txt"},
		{"fig2", false, "fig2.txt"},
		{"fig4", false, "fig4.txt"},
		{"fig6", true, "fig6_A.csv"},
		{"fig6", false, "fig6.txt"},
		{"fig7", false, "fig7.txt"},
		{"table2", false, "table2.txt"},
		{"fig8", false, "fig8.txt"},
		{"fig9", false, "fig9.txt"},
		{"fig9c", false, "fig9c.txt"},
		{"guided", false, "guided.txt"},
		{"hybridpct", false, "hybridpct.txt"},
		{"zoo", false, "zoo.txt"},
		{"ablation", false, "ablation.txt"},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + c.golden)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(&got, c.exp, c.csv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				i := 0
				for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
					i++
				}
				t.Errorf("aidbench -exp %s differs from testdata/%s at line %d:\n got  %q\n want %q", c.exp, c.golden, i+1, g[i], w[i])
			}
		})
	}
	if err := run(new(bytes.Buffer), "fig99", false); err == nil {
		t.Error("an unknown experiment was accepted")
	}
}

// TestExpAll: `-exp all` prints the golden files under their headings, in
// paper order.
// It prints fig6, fig7 and table2 from one run of each sweep, which no single
// experiment's case above goes through.
func TestExpAll(t *testing.T) {
	var want bytes.Buffer
	for _, e := range []string{"fig1", "fig2", "fig4", "fig6", "fig7", "table2", "fig8", "fig9", "fig9c", "guided", "hybridpct", "zoo", "ablation"} {
		golden, err := os.ReadFile("testdata/" + e + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString("==== " + e + " ====\n")
		want.Write(golden)
		want.WriteString("\n")
	}
	var got bytes.Buffer
	if err := run(&got, "all", false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("aidbench -exp all is not the golden files under their headings:\n%s", got.String())
	}
}
