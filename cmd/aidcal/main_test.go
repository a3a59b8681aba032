package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/amp"
	"repro/internal/workloads"
)

// TestRunSmoke: on Platform A the report has one line per workload, in
// workloads.All order; on Tri (2 prime cores, 3 little) the online SF is
// taken at that occupancy; -app prints one SF line per loop; an unknown
// platform or workload is an error for main to report rather than an exit
// from inside the loop.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", "A"); err != nil {
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

	// EP has one loop, so its online range is that loop's SF.
	out.Reset()
	if err := run(&out, "", "Tri"); err != nil {
		t.Fatal(err)
	}
	ep, _ := workloads.ByName("EP")
	prof := ep.Program.Loops()[0].Profile
	tri := amp.PlatformTri()
	on := fmt.Sprintf("%5.2f", tri.SF(prof, 2, 3))
	if wrong := fmt.Sprintf("%5.2f", tri.SF(prof, 4, 4)); wrong == on {
		t.Fatalf("SF(2,3) and SF(4,4) print alike (%s); pick a loop that tells them apart", on)
	}
	if want := "onlineSF[" + on + " " + on + "]"; !strings.Contains(out.String(), "EP               loops= 1  offlineSF[ 2.79  2.79]  "+want) {
		t.Errorf("EP on Tri should read %s:\n%s", want, out.String())
	}

	out.Reset()
	if err := run(&out, "EP", "A"); err != nil {
		t.Fatal(err)
	}
	want := "EP — per-loop offline SF on Platform A (Odroid-XU4 big.LITTLE)\n" +
		"loop  0 ep-main        SF  1.93  ********\n\n"
	if out.String() != want {
		t.Errorf("aidcal -app EP -platform A printed:\n%s\nwant:\n%s", out.String(), want)
	}

	out.Reset()
	if err := run(&out, "", "no-such-platform"); err == nil {
		t.Error("an unknown platform was accepted")
	}
	if err := run(&out, "EP", "no-such-platform"); err == nil {
		t.Error("-app: an unknown platform was accepted")
	}
	if err := run(&out, "no-such-app", "A"); err == nil || !strings.Contains(err.Error(), "available: ") {
		t.Errorf("unknown workload: err = %v, want one that lists the workloads", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed runs printed %q", out.String())
	}
}
