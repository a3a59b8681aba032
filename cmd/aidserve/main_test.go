package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestParseWeightsCyclesShortList(t *testing.T) {
	got, err := parseWeights("4,1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 1, 4, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseWeights = %v, want %v", got, want)
	}
	got, err = parseWeights("", 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("default weights = %v, want %v", got, want)
	}
}

func TestParseWeightsRejectsSurplus(t *testing.T) {
	// More weights than loops used to be dropped silently; a typo'd
	// -loops then ran with the wrong tenant shares.
	if _, err := parseWeights("4,2,1", 2); err == nil {
		t.Fatal("parseWeights accepted 3 weights for 2 loops")
	}
	if _, err := parseWeights("4,0", 4); err == nil {
		t.Fatal("parseWeights accepted weight 0")
	}
	if _, err := parseWeights("4,x", 4); err == nil {
		t.Fatal("parseWeights accepted a non-integer weight")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"wrr", "fcfs", "sf-aware"} {
		p, err := fair.ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("fair.ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := fair.ParsePolicy("lifo"); err == nil {
		t.Fatal("fair.ParsePolicy accepted an unknown name")
	}
}

func TestSpanOfStaggeredArrivals(t *testing.T) {
	// Two staggered loops: the first runs [0, 10ms], the second
	// [8ms, 12ms]. The run's makespan is 12ms; the old per-loop maximum
	// of End-Start reported 10ms — the longest latency, not the span.
	results := []sim.LoopResult{
		{Start: 0, End: 10_000_000},
		{Start: 8_000_000, End: 12_000_000},
	}
	if got, want := spanOf(results), 12*time.Millisecond; got != want {
		t.Fatalf("spanOf = %v, want %v", got, want)
	}
	var maxLatency time.Duration
	for _, r := range results {
		if lat := time.Duration(r.End - r.Start); lat > maxLatency {
			maxLatency = lat
		}
	}
	if maxLatency == spanOf(results) {
		t.Fatal("test fixture does not distinguish span from max latency")
	}
}

func TestVirtualCostScalesWithSpin(t *testing.T) {
	// -spin used to be ignored under -virtual (PerIter hard-coded to
	// 10_000). The default spin must keep that cost; other values scale.
	if got := virtualCost(200).PerIter; got != 10_000 {
		t.Fatalf("virtualCost(200).PerIter = %v, want 10000", got)
	}
	if got := virtualCost(400).PerIter; got != 2*virtualCost(200).PerIter {
		t.Fatalf("virtualCost(400).PerIter = %v, want double virtualCost(200)", got)
	}
}

func TestReportMedianInterpolates(t *testing.T) {
	// Even-length latency sets: the median is the central average, not
	// the upper-middle element the old sorted[len/2] picked.
	var b bytes.Buffer
	lats := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond,
		30 * time.Millisecond, 40 * time.Millisecond}
	report(&b, "test", []int{1, 1, 1, 1}, lats, 4, 40*time.Millisecond)
	out := b.String()
	if !strings.Contains(out, "10ms / 25ms /") {
		t.Fatalf("report median not interpolated:\n%s", out)
	}
	if strings.Contains(out, "/ 30ms /") {
		t.Fatalf("report still picks the upper-middle median:\n%s", out)
	}
}

func testServeOpts(virtual bool) serveOpts {
	return serveOpts{
		kind: "poisson", rate: 400, duration: 250 * time.Millisecond, seed: 7,
		classesCSV: "gold:8,bronze:1", maxPending: 32, shed: true,
		iters: 2000, threads: 4, pl: amp.PlatformA(), schedText: "aid-dynamic,1,5",
		policyName: "wrr", spin: 20, virtual: virtual,
	}
}

func TestServeVirtualDeterministic(t *testing.T) {
	o := testServeOpts(true)
	classes, err := fair.ParseClasses(o.classesCSV)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.ParseSchedule(o.schedText)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *serveSummary {
		policy, err := fair.ParsePolicy(o.policyName)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serveVirtual(o, classes, sched, policy)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a.admitted == 0 {
		t.Fatal("no arrivals admitted")
	}
	if a.admitted != b.admitted || a.elapsed != b.elapsed {
		t.Fatalf("virtual serve not deterministic: %d/%v vs %d/%v",
			a.admitted, a.elapsed, b.admitted, b.elapsed)
	}
	pa, _ := a.overall.Percentile(50)
	pb, _ := b.overall.Percentile(50)
	if pa != pb {
		t.Fatalf("virtual serve p50 not deterministic: %v vs %v", pa, pb)
	}
	if a.shed != 0 {
		t.Fatalf("virtual serve shed %d loops; the simulator admits everything", a.shed)
	}
}

func TestServeRealSampledRecord(t *testing.T) {
	o := testServeOpts(false)
	o.sampleEvery = 4
	o.sampleBudget = 32
	classes, err := fair.ParseClasses(o.classesCSV)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.ParseSchedule(o.schedText)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := fair.ParsePolicy(o.policyName)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := serveReal(o, classes, sched, policy)
	if err != nil {
		t.Fatal(err)
	}
	if sum.admitted == 0 {
		t.Fatal("no arrivals admitted")
	}
	if sum.overall.Count() != sum.admitted {
		t.Fatalf("latency count %d != admitted %d", sum.overall.Count(), sum.admitted)
	}
	if sum.record == nil {
		t.Fatal("sampling enabled but no record built")
	}
	// The per-loop event budget must hold in what the record stores.
	perLoop := make(map[int]int)
	for _, ev := range sum.record.Events {
		perLoop[ev.Loop]++
	}
	if len(perLoop) != len(sum.record.Loops) {
		t.Fatalf("record has %d loops but events for %d", len(sum.record.Loops), len(perLoop))
	}
	for li, n := range perLoop {
		if n > o.sampleBudget {
			t.Fatalf("loop %d stored %d events, budget %d", li, n, o.sampleBudget)
		}
	}
	// A sampled, compacted, budget-trimmed record is still internally
	// consistent: its self-diff is clean.
	if rep := replay.Diff(sum.record, sum.record, 1.0); rep.Regressions > 0 {
		t.Fatalf("sampled record fails self-diff:\n%s", rep)
	}
}

// promExpoLine matches one Prometheus 0.0.4 exposition sample line.
var promExpoLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (-?[0-9.e+-]+|NaN)$`)

// TestMetricsEndpoint scrapes the -metrics handler over httptest: the body
// must be parseable exposition text, carry the runtime counter families and
// the per-class shed counters, and report latency quantiles that agree with
// the histograms the end-of-run report prints.
func TestMetricsEndpoint(t *testing.T) {
	classes, err := fair.ParseClasses("gold:8,bronze:1")
	if err != nil {
		t.Fatal(err)
	}
	sum := newServeSummary("real", "poisson", classes)
	for i := 1; i <= 500; i++ {
		lat := float64(i) * 10_000
		sum.admitted++
		sum.overall.Add(lat)
		sum.classes[i%2].hist.Add(lat)
	}
	sum.classes[1].shed = 7
	sum.shed = 7

	// A real registry with metrics on, driven through one loop so the
	// runtime counter families are non-trivial.
	reg, err := rt.NewRegistry(rt.RegistryConfig{Platform: amp.PlatformA(), NThreads: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	h, err := reg.Submit(rt.LoopRequest{
		N:        5000,
		Schedule: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 8, Major: 64},
		Body:     func(_ int, lo, hi int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Wait()

	srv := httptest.NewServer(metricsHandler(reg, sum))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d:\n%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	out := string(body)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !promExpoLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"aid_iters_total 5000",
		"aid_workers 4",
		"aidserve_admitted_total 500",
		`aidserve_shed_total{class="gold"} 0`,
		`aidserve_shed_total{class="bronze"} 7`,
		`aidserve_latency_ns_count{class="gold"} 250`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("scrape lacks %q:\n%s", want, out)
		}
	}
	// The scraped quantiles are the report's quantiles: same histogram.
	p50, err := sum.classes[0].hist.Percentile(50)
	if err != nil {
		t.Fatal(err)
	}
	prefix := `aidserve_latency_ns{class="gold",quantile="0.5"} `
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			found = true
			got, err := strconv.ParseFloat(line[len(prefix):], 64)
			if err != nil || got != p50 {
				t.Errorf("scraped p50 %q, histogram says %g (err %v)", line, p50, err)
			}
		}
	}
	if !found {
		t.Fatalf("no gold p50 quantile line in:\n%s", out)
	}
}

// TestShedAttribution pins the per-class shed accounting: with the queue
// too small for the offered load, sheds land on the class whose arrival
// was refused, and the report breaks them out per class.
func TestShedAttribution(t *testing.T) {
	o := testServeOpts(false)
	o.maxPending = 1
	o.rate = 2000
	classes, err := fair.ParseClasses(o.classesCSV)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.ParseSchedule(o.schedText)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := fair.ParsePolicy(o.policyName)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := serveReal(o, classes, sched, policy)
	if err != nil {
		t.Fatal(err)
	}
	var byClass int64
	for _, c := range sum.classes {
		byClass += c.shed
	}
	if byClass != sum.shed {
		t.Fatalf("per-class sheds sum to %d, total says %d", byClass, sum.shed)
	}
	if sum.shed == 0 {
		t.Skip("queue of 1 never filled; timing too coarse to assert attribution")
	}
	// The report's per-class shed column carries the same attribution.
	var b bytes.Buffer
	writeServeSummary(&b, sum)
	lines := strings.Split(b.String(), "\n")
	for i, c := range sum.classes {
		fields := strings.Fields(lines[2+i])
		if len(fields) < 4 || fields[0] != c.class.Name || fields[3] != strconv.FormatInt(c.shed, 10) {
			t.Errorf("class %s shed %d, report row says %q", c.class.Name, c.shed, lines[2+i])
		}
	}
}

// smokeOpts is the short open-loop run CI drives through both engines: a
// few hundred loops under Poisson arrivals across three QoS classes.
func smokeOpts(virtual bool) serveOpts {
	return serveOpts{
		kind: "poisson", rate: 200, duration: time.Second, seed: 1,
		classesCSV: "gold:8,silver:4,bronze:1", maxPending: 64, shed: true,
		iters: 5000, pl: amp.PlatformA(), schedText: "aid-dynamic,1,5",
		policyName: "wrr", spin: 50, virtual: virtual,
	}
}

// smokeVirtualReport is what the virtual smoke run prints. Virtual time is
// seed-deterministic, so the admitted count and every latency percentile are
// pinned to the digit; a change here is a change in what the simulator or
// the arrival stream computes, and must be deliberate.
const smokeVirtualReport = `virtual serve: poisson arrivals, 194 admitted, 0 shed, span 993.176ms
   class  weight    count     shed          p50          p95          p99
    gold       8       65        0      1.605ms      2.523ms      2.916ms
  silver       4       65        0       1.61ms       3.31ms       4.03ms
  bronze       1       64        0      2.195ms      5.177ms      6.619ms
overall: p50/p95/p99 1.619ms / 4.606ms / 6.226ms, throughput 195.33 loops/s, max in-flight 0
`

// TestServeSmoke drives the open-loop service tier end to end through
// serve, once per engine. The real run also exercises sampled capture: the
// record file it leaves must decode and self-diff clean, and a later write
// that fails must not damage it.
func TestServeSmoke(t *testing.T) {
	t.Run("virtual", func(t *testing.T) {
		var out bytes.Buffer
		if err := serve(smokeOpts(true), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != smokeVirtualReport {
			t.Errorf("virtual smoke report moved; got:\n%s\nwant:\n%s", out.String(), smokeVirtualReport)
		}
	})
	t.Run("real", func(t *testing.T) {
		o := smokeOpts(false)
		o.sampleEvery, o.sampleBudget = 8, 128
		o.recordPath = filepath.Join(t.TempDir(), "smoke.jsonl")
		var out bytes.Buffer
		if err := serve(o, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out.String(), "real serve: poisson arrivals, ") || !strings.Contains(out.String(), "(self-diff clean)") {
			t.Errorf("real smoke report:\n%s", out.String())
		}
		f, err := os.Open(o.recordPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rec, err := trace.DecodeJSONL(f)
		if err != nil {
			t.Fatalf("record file does not decode: %v", err)
		}
		if len(rec.Loops) == 0 || len(rec.Events) == 0 {
			t.Fatalf("record holds %d loops, %d events", len(rec.Loops), len(rec.Events))
		}
		if rep := replay.Diff(rec, rec, 1.0); rep.Regressions > 0 {
			t.Errorf("decoded record fails its self-diff:\n%s", rep)
		}

		// A record the encoder refuses must leave the file already at the
		// path as it was, and no staging file next to it.
		before, err := os.ReadFile(o.recordPath)
		if err != nil {
			t.Fatal(err)
		}
		rec.Events[0].Cost = math.NaN()
		if err := writeServeRecord(o.recordPath, rec); err == nil {
			t.Fatal("a record with a NaN cost was written")
		}
		after, err := os.ReadFile(o.recordPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("failed write changed the file: %d bytes before, %d after", len(before), len(after))
		}
		if entries, _ := os.ReadDir(filepath.Dir(o.recordPath)); len(entries) != 1 {
			t.Errorf("failed write left %d files in the directory, want only the record", len(entries))
		}
	})
}
