package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/amp"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_all.txt from this build's output")

// TestTraceGolden pins `aidsim -sched all -ni 4096 -trace` byte for byte:
// the seven schedules' lines and their Gantt charts, each chart's columns,
// imbalance and sched-overhead line included. Regenerate it (go test
// ./cmd/aidsim -run TestTraceGolden -update) only for a deliberate change of
// what the simulator computes or the chart draws, and say why.
func TestTraceGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "A", 0, "BS", "all", 4096, 100000, 0, 0.5, 0.3, 0.2, true, ""); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	const golden = "testdata/trace_all.txt"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("aidsim -sched all -ni 4096 -trace differs from %s:\n%s", golden, out.String())
	}
}

// TestTraceBadThreadCount: a thread count the platform cannot hold is the
// simulator's error with -trace as without it, not a crash.
func TestTraceBadThreadCount(t *testing.T) {
	for _, showTrace := range []bool{false, true} {
		var out bytes.Buffer
		err := run(&out, "A", -2, "BS", "all", 4096, 100000, 0, 0.5, 0.3, 0.2, showTrace, "")
		if want := "sim: thread count -2 out of range [1,8]"; err == nil || err.Error() != want {
			t.Errorf("-threads -2 with trace=%v: error %v, want %q", showTrace, err, want)
		}
	}
}

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
	// Migrations the run could never deliver: a thread past the default
	// fleet of 8, a negative thread, a bad CPU due after the run.
	for _, migrate := range []string{"9:0:0", "-1:0:0", "0:99:900000000000"} {
		if err := run(&out, "A", 0, "BS", "dynamic,1", 512, 100000, 0, 0.5, 0.3, 0.2, false, migrate); err == nil {
			t.Errorf("-migrate %s was accepted", migrate)
		}
	}
}

// TestRunRefusesBadCost: a -cost and -slope whose chunks cost a negative,
// NaN or infinite number of units, or run past the end of the virtual clock,
// are the simulator's error naming the loop and the chunk, with -trace as
// without it, not a crash or a makespan built from them.
func TestRunRefusesBadCost(t *testing.T) {
	for _, c := range []struct {
		cost, slope float64
		want        string
	}{
		{-100000, 0, `sim: loop "aidsim-loop": iterations [0,64) cost -6.4e+06 work units, want a finite non-negative cost`},
		{math.NaN(), 0, `sim: loop "aidsim-loop": iterations [0,64) cost NaN work units, want a finite non-negative cost`},
		{1e308, 1e308, `sim: loop "aidsim-loop": iterations [0,64) cost +Inf work units, want a finite non-negative cost`},
		{1e300, 0, `sim: loop "aidsim-loop": iterations [0,64) take`},
	} {
		for _, showTrace := range []bool{false, true} {
			var out bytes.Buffer
			err := run(&out, "A", 0, "BS", "dynamic,64", 4096, c.cost, c.slope, 0.5, 0.3, 0.2, showTrace, "")
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("-cost %v -slope %v, trace=%v: error %v, want %q...", c.cost, c.slope, showTrace, err, c.want)
			}
			if strings.Contains(out.String(), "iterations") {
				t.Errorf("-cost %v -slope %v, trace=%v: prints a result:\n%s", c.cost, c.slope, showTrace, out.String())
			}
		}
	}
}

// TestRunRefusesHugeOverhead: a platform file whose runtime-call overhead
// runs a thread's clock past the int64 range is the simulator's error, with
// -trace as without it, not a crash or a negative sched time.
func TestRunRefusesHugeOverhead(t *testing.T) {
	a := amp.PlatformA()
	clusters := append([]amp.Cluster(nil), a.Clusters...)
	for i := range clusters {
		clusters[i].NumCores = 1
	}
	ov := a.Overhead
	ov.LocalityPenaltyNs = 1e60
	pl, err := amp.New("amp-1b1s-huge-penalty", clusters, ov)
	if err != nil {
		t.Fatal(err)
	}
	data, err := pl.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "platform.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, showTrace := range []bool{false, true} {
		var out bytes.Buffer
		err := run(&out, path, 0, "BS", "dynamic,4", 4096, 100000, 0, 0.5, 0.3, 0.2, showTrace, "")
		if err == nil || !strings.Contains(err.Error(), "past the end of the virtual clock") {
			t.Errorf("trace=%v: error %v, want the end of the virtual clock", showTrace, err)
		}
		if strings.Contains(out.String(), "iterations") {
			t.Errorf("trace=%v: prints a result:\n%s", showTrace, out.String())
		}
	}
}
