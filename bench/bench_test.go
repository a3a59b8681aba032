package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fair"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of two = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if percentile(nil, 50) != 0 || spread(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

// A percentile is only quoted when at least ten samples lie beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Open-loop latency runs from the due time, not the send time: a generator
// that stalls 4 ms before sending makes the request 4 ms slower, it does not
// hide the wait.
func TestLatencyFromDueTime(t *testing.T) {
	classes, err := fair.ParseClasses(serveClasses)
	if err != nil {
		t.Fatal(err)
	}
	const ms = int64(1e6)
	reqs := make([]request, 3)
	for i := range reqs {
		reqs[i].due = int64(i) * 10 * ms
		reqs[i].sent = reqs[i].due
		reqs[i].admitted = reqs[i].sent
		reqs[i].done = reqs[i].sent + 1*ms
		reqs[i].n, reqs[i].class, reqs[i].ok = 2048, i%len(classes), true
	}
	stalled := &reqs[1]
	stalled.sent += 4 * ms
	stalled.admitted, stalled.done = stalled.sent, stalled.sent+1*ms
	if got := stalled.latencyMs(); !near(got, 5) {
		t.Fatalf("stalled request latency %v ms, want 5 (4 ms late + 1 ms service)", got)
	}
	ws := summarizeWindow(reqs, classes, false)
	if !near(ws.p50, 1) || ws.p99 < 4.9 {
		t.Errorf("window p50 %v p99 %v, want 1 and about 5", ws.p50, ws.p99)
	}
	if ws.lateP99 < 3.9 {
		t.Errorf("generator lateness p99 %v ms, want about 4", ws.lateP99)
	}
	if ws.inflightMax != 1 || ws.failed != 0 || !near(ws.okFrac, 1) {
		t.Errorf("inflight %d failed %d ok %v", ws.inflightMax, ws.failed, ws.okFrac)
	}
	// 3 requests of 2048 iterations, each in flight for 1 ms.
	if want := 3 * 2048 / 0.003; !near(ws.itersPerS, want) {
		t.Errorf("service rate %v, want %v", ws.itersPerS, want)
	}
	// A failed request misses the SLO and is left out of the percentiles.
	reqs[2].ok = false
	if ws = summarizeWindow(reqs, classes, false); ws.failed != 1 || !near(ws.okFrac, 2.0/3) {
		t.Errorf("after a failure: failed %d ok %v, want 1 and 2/3", ws.failed, ws.okFrac)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "window", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "rt.Wait", StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, Name: "rt.Wait", StartNs: 20, EndNs: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Name: "rt.Wait", StartNs: 90, EndNs: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Name: "inner", StartNs: 25, EndNs: 35},
		{ID: 5, Parent: 0, Name: "open", StartNs: 60, EndNs: -1}, // never closed: ignored
	}
	got := selfTimes(spans)
	// Children cover [10,50) and [90,100): self = 100 - 50.
	if w := got["window"]; w.Count != 1 || w.TotalNs != 100 || w.SelfNs != 50 {
		t.Errorf("window = %+v, want total 100 self 50", w)
	}
	// 20 + 30 + 30 total; span 2 loses the 10 its child covers.
	if w := got["rt.Wait"]; w.Count != 3 || w.TotalNs != 80 || w.SelfNs != 70 {
		t.Errorf("rt.Wait = %+v, want total 80 self 70", w)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was counted")
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	nilTracer.end(-1)
	nilTracer.add("x", -1, 0, 0, 1)
}

func TestResultRoundTrip(t *testing.T) {
	want := resultFile{
		Schema: 1, NProc: 2, GoMaxProcs: 4, GoVersion: "go1.24.0", Commit: "abc", Seed: 7, Seconds: 15,
		Runs: []runRecord{{
			Workload: "fine_chunk", Correct: true, Attempted: 90, Notes: []string{"n"},
			Metrics: metricSet{"iters_per_s": {Value: 2.5e7, Unit: "1/s", Q1: 2.4e7, Q3: 2.6e7, N: 30}},
		}},
	}
	path := filepath.Join(t.TempDir(), "sub", "r.json")
	if err := writeResult(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if err := os.WriteFile(path, []byte(`{"schema": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(path); err == nil {
		t.Error("a result of another schema was accepted")
	}
}

func TestGenStream(t *testing.T) {
	a, err := genStream(42, serveRateHi, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genStream(42, serveRateHi, 2e9)
	c, _ := genStream(43, serveRateHi, 2e9)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.due, c.due) || reflect.DeepEqual(a.n, c.n) {
		t.Error("different seeds gave the same inputs")
	}
	if want := 2 * serveRateHi; math.Abs(float64(len(a.due))-want) > 0.15*want {
		t.Errorf("%d arrivals in 2 s at %v/s", len(a.due), serveRateHi)
	}
	for i := 0; i+len(tripBlock) <= len(a.n); i += len(tripBlock) {
		count := map[int64]int{}
		for _, n := range a.n[i : i+len(tripBlock)] {
			count[n]++
		}
		if count[2048] != 14 || count[8192] != 5 || count[32768] != 1 {
			t.Fatalf("block at %d has mix %v, want 14/5/1", i, count)
		}
	}
}

func TestCoverageCheck(t *testing.T) {
	cells := make([]cell, 2)
	body := newBody(cells, 1)
	body(0, 0, 40)
	body(1, 40, 100)
	if !coveredOnce(cells, 100) || chunkCalls(cells) != 2 {
		t.Error("a full cover failed the check")
	}
	body(1, 99, 100) // one iteration twice
	if coveredOnce(cells, 100) {
		t.Error("a doubled iteration passed the check")
	}
	resetCells(cells)
	body(0, 0, 50)
	body(1, 51, 101) // right count, wrong indices
	if coveredOnce(cells, 100) {
		t.Error("a shifted range passed the check")
	}
}

func TestJudge(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		new    []float64
		better string
		bound  float64
		exact  bool
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, "lower", 0.10, false, unchanged},
		{"slower beyond the bound", []float64{115, 116, 114, 115, 117}, "lower", 0.10, false, regressed},
		{"slower within the bound", []float64{105, 106, 104, 105, 107}, "lower", 0.10, false, unchanged},
		{"every run faster", []float64{90, 91, 89, 90, 92}, "lower", 0.10, false, improved},
		{"higher is better, every run higher", []float64{110, 111, 109, 110, 112}, "higher", 0.10, false, improved},
		{"higher is better, lower", []float64{80, 81, 79, 80, 82}, "higher", 0.10, false, regressed},
		{"spread wider than the bound", []float64{80, 130, 100, 90, 125}, "lower", 0.10, false, unresolved},
		{"exact, identical", []float64{100, 100, 100, 100, 100}, "lower", 0.10, true, unchanged},
		{"exact, one digit off", []float64{100, 100, 100, 100, 100.0001}, "lower", 0.10, true, regressed},
	} {
		if c.exact {
			old = []float64{100, 100, 100, 100, 100}
		}
		if got, _, _ := judge(old, c.new, c.better, c.bound, c.exact); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []gate `json:"end_to_end"`
		PerLayer []gate `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads declared, %d in the code", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadTable[i].name {
			t.Errorf("workload %d is %q, the code has %q", i, w.Name, workloadTable[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, gates []gate, defs []metricDef, bounded bool) {
		if len(gates) != len(defs) {
			t.Fatalf("%s: %d declared, %d in the code", kind, len(gates), len(defs))
		}
		setup := false
		for i, g := range gates {
			d := defs[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: declared %s/%s/%s, the code has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound < 0 || *g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside [0, 0.25]", kind, g.Name, *g.Bound)
			}
			setup = setup || (g.Name == "setup_s" && g.Unit == "s" && g.Better == "lower")
		}
		if bounded && !setup {
			t.Error("no setup_s among the end-to-end metrics")
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
}

// TestSmoke runs every workload at toy sizes, untraced and traced, through
// the same entry point as the command line.
func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smoke.json")
	var report bytes.Buffer
	if err := run([]string{"-smoke", "-trace", "1", "-dir", ".", "-out", out}, &report); err != nil {
		t.Fatalf("smoke run: %v\n%s", err, report.String())
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2*len(workloadTable) {
		t.Fatalf("%d runs, want %d", len(res.Runs), 2*len(workloadTable))
	}
	if res.NProc < 1 || res.GoMaxProcs != fleetProcs+res.NProc || res.GoVersion == "" || res.Commit == "" || res.Seed != 1 {
		t.Errorf("provenance incomplete: %+v", res)
	}
	for _, r := range res.Runs {
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s traced=%v: correct %v, failed %d of %d", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", r.Workload, r.Trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", r.Workload, d.Name, m, ok)
			}
			if !r.Trace && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", r.Workload, d.Name, m.Value)
			}
		}
		if r.Trace {
			for _, name := range []string{"pool.claim_ns.strict", "core.next_ns.dyn1", "rt.chunk_ns", "bench.body_ns.fine", "fair.pick_ns"} {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s: probe %s reads %v", r.Workload, name, r.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(out), "spans-"+r.Workload+"-seed1.jsonl")); err != nil {
				t.Errorf("%s: no span file: %v", r.Workload, err)
			}
		}
	}
	// One workload alone ends with the driver's line.
	report.Reset()
	if err := run([]string{"-smoke", "-workload", "coarse_chunk", "-dir", ".", "-out", out}, &report); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(report.String()), "\n")
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the driver's object: %v\n%s", err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("driver line: %+v", line)
	}
	if err := run([]string{"-workload", "nope", "-dir", "."}, &report); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	bound := 0.10
	spec := benchmarkSpec{
		EndToEnd: []gate{{Name: "iters_per_s", Unit: "1/s", Better: "higher", Bound: &bound}},
		PerLayer: []gate{{Name: "rt.chunk_ns", Unit: "ns", Better: "lower"}},
	}
	raw, _ := json.Marshal(spec)
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(set string, i int, rate, chunk float64) {
		res := resultFile{Schema: 1, Seed: 1, Runs: []runRecord{
			{Workload: "fine_chunk", Metrics: metricSet{"iters_per_s": {Value: rate, Unit: "1/s"}}},
			{Workload: "fine_chunk", Trace: true, Metrics: metricSet{"rt.chunk_ns": {Value: chunk, Unit: "ns"}}},
		}}
		if err := writeResult(filepath.Join(dir, set, "run"+string(rune('0'+i))+".json"), res); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{100, 101, 99, 100, 102} {
		write("old", i, v, 300)
		write("same", i, v+0.5, 400)
		write("slow", i, v*0.8, 300)
	}
	var report bytes.Buffer
	if err := compareSets(&report, specPath, filepath.Join(dir, "old"), filepath.Join(dir, "same")); err != nil {
		t.Errorf("equal sets: %v\n%s", err, report.String())
	}
	if !strings.Contains(report.String(), "rt.chunk_ns") || !strings.Contains(report.String(), "1 unchanged") {
		t.Errorf("report lacks the per-layer line or the tally:\n%s", report.String())
	}
	report.Reset()
	if err := compareSets(&report, specPath, filepath.Join(dir, "old"), filepath.Join(dir, "slow")); err == nil {
		t.Errorf("a 20 %% loss passed:\n%s", report.String())
	}
}
