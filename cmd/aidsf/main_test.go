package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke: one application restricted to Platform A prints a header and
// one SF line per loop; with no application the four Fig. 2 series come out;
// an unknown platform or workload is an error, not an exit.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "EP", "A"); err != nil {
		t.Fatal(err)
	}
	want := "EP — per-loop offline SF on Platform A (Odroid-XU4 big.LITTLE)\n" +
		"loop  0 ep-main        SF  1.93  ********\n\n"
	if out.String() != want {
		t.Errorf("aidsf -app EP -platform A printed:\n%s\nwant:\n%s", out.String(), want)
	}

	out.Reset()
	if err := run(&out, "", ""); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "Fig 2: per-loop offline SF"); n != 4 {
		t.Errorf("default run printed %d Fig. 2 series, want BT and CG on A and B", n)
	}

	out.Reset()
	if err := run(&out, "EP", "no-such-platform"); err == nil {
		t.Error("an unknown platform was accepted")
	}
	if err := run(&out, "no-such-app", "A"); err == nil || !strings.Contains(err.Error(), "available: ") {
		t.Errorf("unknown workload: err = %v, want one that lists the workloads", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed runs printed %q", out.String())
	}
}
