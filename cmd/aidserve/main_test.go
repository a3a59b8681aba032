package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/amp"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"wrr", "fcfs"} {
		p, err := fair.ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("fair.ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	for _, name := range []string{"lifo", "sf-aware"} {
		if _, err := fair.ParsePolicy(name); err == nil {
			t.Fatalf("fair.ParsePolicy accepted the unknown name %q", name)
		}
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

func testServeOpts(virtual bool) serveOpts {
	return serveOpts{
		kind: "poisson", rate: 400, duration: 250 * time.Millisecond, seed: 7,
		classesCSV: "gold:8,bronze:1", maxPending: 32, shed: true,
		iters: 2000, threads: 4, pl: amp.PlatformA(), schedText: "aid-dynamic,1,5",
		policyName: "wrr", spin: 20, virtual: virtual,
	}
}

// runServe resolves o into a plan and runs it on one engine; each call
// builds its own policy, so two runs share no state.
func runServe(t *testing.T, o serveOpts, run func(serveOpts, plan) (*serveSummary, error)) (plan, *serveSummary) {
	t.Helper()
	p, err := newPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := run(o, p)
	if err != nil {
		t.Fatal(err)
	}
	return p, sum
}

func TestServeVirtualDeterministic(t *testing.T) {
	o := testServeOpts(true)
	_, a := runServe(t, o, serveVirtual)
	_, b := runServe(t, o, serveVirtual)
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
	_, sum := runServe(t, o, serveReal)
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
	_, sum := runServe(t, o, serveReal)
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

// TestServeRealSubmitsEveryArrival: the real submitter sleeps until each
// stamp of the stream the virtual engine replays, so every arrival is either
// admitted or shed. A submitter that slept a gap from its own late wake-up
// stretched the stream past its window and dropped the tail (84 of 103
// arrivals for these options).
func TestServeRealSubmitsEveryArrival(t *testing.T) {
	o := testServeOpts(false)
	proc, err := arrival.New(o.kind, o.rate, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	want := len(arrival.Times(proc, 0, int64(o.duration)))
	p, sum := runServe(t, o, serveReal)
	if len(p.stamps) != want {
		t.Fatalf("plan holds %d stamps, arrival.Times gives %d", len(p.stamps), want)
	}
	if got := sum.admitted + sum.shed; got != int64(want) {
		t.Fatalf("admitted %d + shed %d = %d of %d arrivals", sum.admitted, sum.shed, got, want)
	}
	if sum.overall.Count() != sum.admitted {
		t.Fatalf("latency count %d != admitted %d", sum.overall.Count(), sum.admitted)
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
  silver       4       65        0       1.61ms       3.31ms      4.017ms
  bronze       1       64        0      2.195ms      5.177ms      6.576ms
overall: p50/p95/p99 1.619ms / 4.606ms / 6.226ms, throughput 195.33 loops/s, max in-flight 4
`

// smokeBatchReport is what a virtual batch of two loops, one per class,
// prints: each class's one latency at every percentile, and the batch's
// makespan as the span. These are the per-loop latencies and the makespan
// the closed-loop runner printed for the same two loops as weights 8 and 1.
const smokeBatchReport = `virtual serve: batch arrivals, 2 admitted, 0 shed, span 484.017ms
   class  weight    count     shed          p50          p95          p99
       a       8        1        0    271.718ms    271.718ms    271.718ms
       b       1        1        0    484.017ms    484.017ms    484.017ms
overall: p50/p95/p99 482.345ms / 482.345ms / 482.345ms, throughput 4.13 loops/s, max in-flight 2
`

// TestServeSmoke drives the service tier end to end through serve: the
// open-loop stream once per engine, and a batch in virtual time. The real
// run also exercises sampled capture: the record file it leaves must decode
// and self-diff clean, and a later write that fails must not damage it.
func TestServeSmoke(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		o := serveOpts{
			loops: 2, iters: 200_000, classesCSV: "a:8,b:1", maxPending: 64,
			pl: amp.PlatformA(), schedText: "dynamic,16", policyName: "wrr",
			spin: 200, virtual: true,
		}
		var out bytes.Buffer
		if err := serve(o, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != smokeBatchReport {
			t.Errorf("virtual batch report moved; got:\n%s\nwant:\n%s", out.String(), smokeBatchReport)
		}
	})
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

// TestServeRealMaxInFlight: a batch of four loops on a four-worker fleet is
// admitted at once and runs for tens of milliseconds, so all four are in
// flight together. Sampling the registry's in-flight count before each
// Submit missed the loop being admitted and printed 3.
func TestServeRealMaxInFlight(t *testing.T) {
	o := serveOpts{
		loops: 4, iters: 20_000, threads: 4, classesCSV: "std", maxPending: 64, shed: true,
		pl: amp.PlatformA(), schedText: "aid-dynamic,1,5", policyName: "wrr", spin: 200,
	}
	var out bytes.Buffer
	if err := serve(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), " 4 admitted, ") || !strings.HasSuffix(out.String(), ", max in-flight 4\n") {
		t.Errorf("four loops admitted at once, report:\n%s", out.String())
	}
}
