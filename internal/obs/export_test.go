package obs_test

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simRecord produces a deterministic two-loop multi-tenant sim record — the
// same construction aidstat's golden fixture uses.
func simRecord(t testing.TB) *trace.Record {
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
		{Name: "alpha", NI: 4000, Cost: sim.UniformCost{PerIter: 700}},
		{Name: "beta", NI: 2500, Cost: sim.LinearCost{Base: 300, Slope: 0.4}, Weight: 2},
	}
	if _, err := sim.RunLoops(cfg, specs, fair.NewWeightedRoundRobin(0), 0); err != nil {
		t.Fatal(err)
	}
	return rec.Record()
}

func TestAnalyzeSimRecord(t *testing.T) {
	rec := simRecord(t)
	a, err := obs.Analyze(rec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != "sim" || a.SpanNs <= 0 {
		t.Fatalf("bad provenance: engine=%q span=%d", a.Engine, a.SpanNs)
	}
	var iters int64
	for _, th := range a.Threads {
		iters += th.Iters
		if th.UtilPct < 0 || th.UtilPct > 100.0001 {
			t.Errorf("t%d: utilization %f out of range", th.Tid, th.UtilPct)
		}
	}
	if want := int64(4000 + 2500); iters != want {
		t.Errorf("threads account for %d iters, want %d", iters, want)
	}
	var chunks, tiers int64
	for _, ls := range a.Loops {
		chunks += ls.Chunks
	}
	for _, c := range a.TierCounts {
		tiers += c
	}
	if tiers != chunks {
		t.Errorf("tier counts sum to %d, loops count %d chunks", tiers, chunks)
	}
	if a.ImbalancePct < 0 || a.ImbalancePct >= 100 {
		t.Errorf("imbalance %f%% out of range", a.ImbalancePct)
	}
	if len(a.Loops) != 2 || a.Loops[0].Name != "alpha" || a.Loops[1].Name != "beta" {
		t.Fatalf("loop summaries wrong: %+v", a.Loops)
	}
	// AID-dynamic publishes an initial R and a final estimate at least.
	if a.Loops[0].SFFirst == nil || a.Loops[0].SFSamples < 1 {
		t.Errorf("loop alpha has no SF trajectory: %+v", a.Loops[0])
	}

	var buf bytes.Buffer
	if err := obs.WriteReport(&buf, rec, a); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"imbalance:", "steal matrix", "activity", `loop "alpha"`, "steals by tier"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	// Gantt strips must be exactly the declared width.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "t0 ") {
			fields := strings.Fields(line)
			strip := fields[len(fields)-1]
			if len(strip) != 60 {
				t.Errorf("gantt strip is %d chars, want 60: %q", len(strip), strip)
			}
		}
	}
}

// TestExportChromeRefusesMoreThreadsThanCores: a record of more workers than
// its platform has cores is refused with an error, not a panic in the
// thread-to-core mapping.
func TestExportChromeRefusesMoreThreadsThanCores(t *testing.T) {
	rec := simRecord(t)
	rec.NThreads = amp.PlatformA().NumCores() + 1
	if err := obs.ExportChrome(&bytes.Buffer{}, rec); err == nil || !strings.Contains(err.Error(), "9 threads") {
		t.Errorf("export of 9 threads on 8 cores: err = %v, want the thread count refused", err)
	}
}

func TestExportChromeDeterministicAndValid(t *testing.T) {
	rec := simRecord(t)
	var a, b bytes.Buffer
	if err := obs.ExportChrome(&a, rec); err != nil {
		t.Fatal(err)
	}
	if err := obs.ExportChrome(&b, rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same record differ byte-wise")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete, instants, counters, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Errorf("negative duration on %q", ev.Name)
			}
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if complete == 0 || instants == 0 || counters == 0 {
		t.Errorf("export lacks event kinds: X=%d i=%d C=%d", complete, instants, counters)
	}
	if meta != 1+rec.NThreads {
		t.Errorf("got %d metadata events, want %d (process + threads)", meta, 1+rec.NThreads)
	}
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (-?[0-9.e+-]+|NaN)$`)

func TestWritePrometheusFormat(t *testing.T) {
	m := obs.New(2, 2, func(tid int) int { return tid % 2 })
	var l obs.Ledger
	l.Arm([]int{0, 1}, [][]int{{0, 2}, {2, 0}}, m, nil, nil, 0, false)
	l.Lane(0).Chunk(core.Assign{Hi: 10}, 0, 0, 500, 0)
	cross := core.Assign{Hi: 5, AssignCredit: core.AssignCredit{CreditClaimed: 32}} // worker 1 from type 0's shard
	l.Lane(1).Call(cross, 0, 0)
	l.Lane(1).Chunk(cross, 0, 0, 0, 0)
	l.Lane(0).Flush()
	l.Lane(1).Flush()
	m.Cell(1).Idle(100)
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, "", m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"aid_chunks_total 2",
		"aid_iters_total 15",
		`aid_steals_total{tier="home"} 1`,
		`aid_steals_total{tier="cross_pkg"} 1`,
		"aid_credit_claimed_iters_total 32",
		"aid_busy_ns_total 500",
		"aid_idle_ns_total 100",
		`aid_occupancy_ns_total{type="0"} 500`,
		"aid_workers 2",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
