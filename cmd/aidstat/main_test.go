package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the committed golden files")

// goldenRecord builds the deterministic two-tenant sim record behind the
// golden fixture. Any change to this construction (or to the simulator's
// event stream or the chrome exporter) must come with a regenerated fixture
// (go test ./cmd/aidstat/ -run Golden -update) and an eyeball of the diff.
func goldenRecord(t testing.TB) *trace.Record {
	t.Helper()
	rec := trace.NewRecorder()
	cfg := sim.Config{
		Platform: amp.PlatformA(),
		NThreads: 8,
		Binding:  amp.BindBS,
		Factory: func(info core.LoopInfo) (core.Scheduler, error) {
			return core.NewAIDDynamic(info, 8, 64)
		},
		Recorder: rec,
	}
	specs := []sim.LoopSpec{
		{Name: "alpha", NI: 3000, Cost: sim.UniformCost{PerIter: 700}},
		{Name: "beta", NI: 2000, Cost: sim.LinearCost{Base: 300, Slope: 0.5}, Weight: 2, Arrive: 200_000},
	}
	if _, err := sim.RunLoops(cfg, specs, fair.NewWeightedRoundRobin(0), 0); err != nil {
		t.Fatal(err)
	}
	return rec.Record()
}

// writeRecordFile serializes the record to a temp JSONL file for the CLI.
func writeRecordFile(t *testing.T, rec *trace.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeJSONL(f, rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportSmoke(t *testing.T) {
	path := writeRecordFile(t, goldenRecord(t))
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine=sim", "imbalance:", `loop "alpha"`, `loop "beta"`, "steals by tier"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestChromeGolden pins the chrome export byte-for-byte: the same recorded
// run must always export to the same artifact (the determinism the issue
// requires), and unintentional format drift fails CI.
func TestChromeGolden(t *testing.T) {
	path := writeRecordFile(t, goldenRecord(t))
	var out bytes.Buffer
	if err := run([]string{"-export", "chrome", path}, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("chrome export deviates from %s (%d vs %d bytes); regenerate with -update if intended",
			golden, out.Len(), len(want))
	}
}

func TestRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-export", "paraview", "x.jsonl"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown export format accepted")
	}
	if err := run([]string{}, &bytes.Buffer{}); err == nil {
		t.Error("missing record path accepted")
	}
}

// TestRefusesMoreThreadsThanCores reads the record of replay's fuzz input
// chrome-more-threads-than-cores: 8 threads on a platform of 4 cores, whose
// second cluster a corrupted key folded into the first. The text report
// refuses it, as the Chrome export does, instead of printing a per-thread
// table for cores the platform does not have.
func TestRefusesMoreThreadsThanCores(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "replay", "testdata", "fuzz",
		"FuzzReplayRecord", "chrome-more-threads-than-cores"))
	if err != nil {
		t.Fatal(err)
	}
	// A corpus file is a header line and one Go-quoted []byte value.
	_, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	jsonl, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(value, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(jsonl), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{path}, &out); err == nil || !strings.Contains(err.Error(), "8 threads") {
		t.Errorf("report of 8 threads on 4 cores: err = %v, want the thread count refused; printed:\n%s", err, out.String())
	}
}
