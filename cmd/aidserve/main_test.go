package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	"repro/internal/stats"
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

// TestSummarize pins the one function from records to numbers.
func TestSummarize(t *testing.T) {
	t.Run("staggered", func(t *testing.T) {
		// Two staggered loops: the first runs [0, 10ms], the second
		// [8ms, 12ms]. The run's span is 12ms; a per-loop maximum of
		// done-admit reports 10ms, the longest latency, not the span.
		reqs := []request{
			{class: 0, arrive: 0, admit: 0, done: 10_000_000},
			{class: 0, arrive: 8_000_000, admit: 8_000_000, done: 12_000_000},
		}
		s := summarize(1, reqs)
		if got, want := s.span, 12*time.Millisecond; got != want {
			t.Fatalf("span = %v, want %v", got, want)
		}
		if s.span == time.Duration(s.overall.q[len(quantiles)-1]) {
			t.Fatal("test fixture does not distinguish span from max latency")
		}
		if s.maxInFlight != 2 || s.admitted != 2 || s.throughput != 2/s.span.Seconds() {
			t.Fatalf("max in-flight %d, admitted %d, throughput %g", s.maxInFlight, s.admitted, s.throughput)
		}
	})
	t.Run("random", testSummarizeRandom)
}

// testSummarizeRandom checks the summary against the records it reads, over
// random runs whose latencies span three decades, so that neighbouring
// order statistics mostly sit in different log buckets: per class and overall, each percentile is stats.Percentile of
// the exact latencies, so it is monotone in p and lies within [min, max]; a
// class with no finished loop prints "-" in the report and NaN in the
// scrape; counts and sheds are the records'.
func testSummarizeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	classes := []fair.Class{{Name: "gold", Weight: 8}, {Name: "silver", Weight: 4}, {Name: "bronze", Weight: 1}, {Name: "idle", Weight: 1}}
	for trial := 0; trial < 200; trial++ {
		run := &serveRun{engine: "real", plan: plan{arrivals: "poisson", classes: classes}}
		lats := make([][]float64, len(classes))
		var all []float64
		sheds := make([]int64, len(classes))
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			// "idle" gets no finished loop: its arrivals are shed or still running.
			r := request{class: rng.Intn(len(classes)), arrive: int64(i) * 1000}
			r.admit = r.arrive + rng.Int63n(1000)
			switch {
			case rng.Intn(5) == 0:
				r.shed = true
				sheds[r.class]++
			case rng.Intn(5) == 0 || r.class == len(classes)-1:
				r.done = -1
			default:
				r.done = r.admit + int64(math.Pow(10, 4+3*rng.Float64()))
				lat := float64(r.done - r.admit)
				lats[r.class] = append(lats[r.class], lat)
				all = append(all, lat)
			}
			run.reqs = append(run.reqs, r)
		}
		s := run.summary()
		var report, scrape bytes.Buffer
		writeServeSummary(&report, run)
		if err := run.writeMetrics(&scrape, nil); err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(report.String(), "\n")
		check := func(name string, got tally, lats []float64, shed int64) {
			t.Helper()
			if got.count != int64(len(lats)) || got.shed != shed {
				t.Fatalf("trial %d %s: count %d shed %d, records say %d and %d", trial, name, got.count, got.shed, len(lats), shed)
			}
			for i, pct := range quantiles {
				want, err := stats.Percentile(lats, pct)
				if err != nil {
					want = math.NaN()
				}
				v := got.q[i]
				if v != want && !(math.IsNaN(v) && math.IsNaN(want)) {
					t.Fatalf("trial %d %s: p%g = %g, exact %g over %v", trial, name, pct, v, want, lats)
				}
				if len(lats) > 0 && (v < slices.Min(lats) || v > slices.Max(lats) || i > 0 && v < got.q[i-1]) {
					t.Fatalf("trial %d %s: p%g = %g, not monotone within [min, max] of %v: %v", trial, name, pct, v, lats, got.q)
				}
			}
		}
		for i, c := range classes {
			check(c.Name, s.classes[i], lats[i], sheds[i])
			fields := strings.Fields(rows[2+i])
			wantQ := []string{"-", "-", "-"}
			if len(lats[i]) > 0 {
				for j := range quantiles {
					wantQ[j] = durNs(s.classes[i].q[j]).String()
				}
			}
			if len(fields) != 7 || fields[0] != c.Name || !slices.Equal(fields[4:], wantQ) {
				t.Fatalf("trial %d: report row %q, want percentiles %v", trial, rows[2+i], wantQ)
			}
			for j, label := range []string{"0.5", "0.95", "0.99"} { // NaN for "idle"
				line := fmt.Sprintf("aidserve_latency_ns{class=%q,quantile=%q} %g\n", c.Name, label, s.classes[i].q[j])
				if !strings.Contains(scrape.String(), line) {
					t.Fatalf("trial %d: scrape lacks %q:\n%s", trial, line, scrape.String())
				}
			}
		}
		var shed int64
		for _, v := range sheds {
			shed += v
		}
		check("overall", s.overall, all, shed)
		if s.admitted != int64(n)-shed {
			t.Fatalf("trial %d: admitted %d of %d arrivals with %d shed", trial, s.admitted, n, shed)
		}
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
		iters: 2000, threads: 4, pl: amp.PlatformA(), sched: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5},
		policyName: "wrr", spin: 20, virtual: virtual,
	}
}

// runServe resolves o into a plan and runs it on one engine; each call
// builds its own policy, so two runs share no state.
func runServe(t *testing.T, o serveOpts, runner func(serveOpts, plan) (*serveRun, error)) (plan, *serveRun) {
	t.Helper()
	p, err := newPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runner(o, p)
	if err != nil {
		t.Fatal(err)
	}
	return p, run
}

func TestServeVirtualDeterministic(t *testing.T) {
	o := testServeOpts(true)
	_, a := runServe(t, o, serveVirtual)
	_, b := runServe(t, o, serveVirtual)
	if len(a.reqs) == 0 {
		t.Fatal("no arrivals admitted")
	}
	if !slices.Equal(a.reqs, b.reqs) {
		t.Fatal("virtual serve not deterministic: the two runs' records differ")
	}
	if s := a.summary(); s.overall.shed != 0 || s.admitted != int64(len(a.reqs)) {
		t.Fatalf("virtual serve shed %d loops; the simulator admits everything", s.overall.shed)
	}
}

func TestServeRealSampledRecord(t *testing.T) {
	o := testServeOpts(false)
	o.sampleEvery = 4
	o.sampleBudget = 32
	_, run := runServe(t, o, serveReal)
	s := run.summary()
	if s.admitted == 0 {
		t.Fatal("no arrivals admitted")
	}
	if s.overall.count != s.admitted {
		t.Fatalf("latency count %d != admitted %d", s.overall.count, s.admitted)
	}
	if run.record == nil {
		t.Fatal("sampling enabled but no record built")
	}
	// The per-loop event budget must hold in what the record stores.
	perLoop := make(map[int32]int)
	for _, ev := range run.record.Events {
		perLoop[ev.Loop]++
	}
	if len(perLoop) != len(run.record.Loops) {
		t.Fatalf("record has %d loops but events for %d", len(run.record.Loops), len(perLoop))
	}
	for li, n := range perLoop {
		if n > o.sampleBudget {
			t.Fatalf("loop %d stored %d events, budget %d", li, n, o.sampleBudget)
		}
	}
	// A sampled, compacted, budget-trimmed record is still internally
	// consistent: its self-diff is clean.
	if rep := replay.Diff(run.record, run.record, 1.0); rep.Regressions > 0 {
		t.Fatalf("sampled record fails self-diff:\n%s", rep)
	}
}

// promExpoLine matches one Prometheus 0.0.4 exposition sample line.
var promExpoLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (-?[0-9.e+-]+|NaN)$`)

// TestMetricsEndpoint scrapes the -metrics handler over httptest: the body
// must be parseable exposition text, carry the runtime counter families and
// the per-class shed counters, and report the latency quantiles the
// end-of-run report prints from the same summary.
func TestMetricsEndpoint(t *testing.T) {
	classes, err := fair.ParseClasses("gold:8,bronze:1")
	if err != nil {
		t.Fatal(err)
	}
	run := &serveRun{engine: "real", plan: plan{arrivals: "poisson", classes: classes}}
	for i := 1; i <= 500; i++ {
		run.reqs = append(run.reqs, request{class: i % 2, arrive: int64(i), admit: int64(i), done: int64(i) * 10_001})
	}
	for i := 0; i < 7; i++ {
		run.reqs = append(run.reqs, request{class: 1, arrive: 600, shed: true})
	}

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

	srv := httptest.NewServer(metricsHandler(reg, run))
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
	// The scraped quantiles are the report's quantiles: same summary.
	p50 := run.summary().classes[0].q[0]
	var report bytes.Buffer
	writeServeSummary(&report, run)
	if gold := strings.Fields(strings.Split(report.String(), "\n")[2]); gold[0] != "gold" || gold[4] != durNs(p50).String() {
		t.Errorf("report's gold row %q, summary's p50 %v", gold, durNs(p50))
	}
	prefix := `aidserve_latency_ns{class="gold",quantile="0.5"} `
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			found = true
			got, err := strconv.ParseFloat(line[len(prefix):], 64)
			if err != nil || got != p50 {
				t.Errorf("scraped p50 %q, the report's %g (err %v)", line, p50, err)
			}
		}
	}
	if !found {
		t.Fatalf("no gold p50 quantile line in:\n%s", out)
	}
}

// TestMetricsListenerServesPprof: the -metrics listener serves
// net/http/pprof's handlers under /debug/pprof/ from its own mux, and every
// other path, /metrics included, still answers with the scrape.
func TestMetricsListenerServesPprof(t *testing.T) {
	reg, err := rt.NewRegistry(rt.RegistryConfig{Platform: amp.PlatformA(), NThreads: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := httptest.NewServer(metricsHandler(reg, &serveRun{engine: "real"}))
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || !strings.Contains(body, os.Args[0]) {
		t.Errorf("/debug/pprof/cmdline: status %d, body %q; want 200 and the command line", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status %d; want 200 and the profile index:\n%s", code, body)
	}
	for _, path := range []string{"/metrics", "/", "/debug/pprofx"} {
		code, body := get(path)
		if code != http.StatusOK || !strings.Contains(body, "aid_workers 4\n") || !strings.Contains(body, "aidserve_admitted_total 0\n") {
			t.Errorf("%s: status %d; want 200 and the scrape's families:\n%s", path, code, body)
		}
	}
}

// TestServeRealLiveViews scrapes -metrics and ticks -metrics-interval while
// serveReal is in flight, so that under -race (make race) the scrapers'
// reads of the records meet the submitter's and the completion goroutines'
// writes. serveReal announces the listener and prints the ticker lines on
// stderr, which the test reads through a pipe.
func TestServeRealLiveViews(t *testing.T) {
	o := testServeOpts(false)
	o.metricsAddr, o.metricsInterval = "127.0.0.1:0", time.Millisecond
	p, err := newPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = pw
	defer func() { os.Stderr = stderr }()

	url := make(chan string, 1)
	ticks := make(chan int)
	go func() {
		n := 0
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "aidserve: metrics on "); ok {
				url <- addr
			} else if strings.HasPrefix(sc.Text(), "aidserve: admitted ") {
				n++
			}
		}
		ticks <- n
	}()
	type outcome struct {
		run *serveRun
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		run, err := serveReal(o, p)
		done <- outcome{run, err}
	}()

	scrapes := 0
	var out outcome
	select {
	case out = <-done:
	case u := <-url:
	scrape:
		for {
			select {
			case out = <-done:
				break scrape
			default:
			}
			if resp, err := http.Get(u); err == nil {
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode == http.StatusOK && strings.Contains(string(body), "aidserve_admitted_total ") {
					scrapes++
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	os.Stderr = stderr
	pw.Close()
	progress := <-ticks
	if out.err != nil {
		t.Fatal(out.err)
	}
	if scrapes == 0 || progress == 0 {
		t.Fatalf("%d scrapes and %d progress lines during the run, want some of each", scrapes, progress)
	}
	if s := out.run.summary(); s.admitted+s.overall.shed != int64(len(p.stamps)) || s.overall.count != s.admitted {
		t.Fatalf("%d admitted, %d shed, %d finished of %d arrivals", s.admitted, s.overall.shed, s.overall.count, len(p.stamps))
	}
}

// TestShedAttribution pins the per-class shed accounting: with the queue
// too small for the offered load, sheds land on the class whose arrival
// was refused, and the report breaks them out per class.
func TestShedAttribution(t *testing.T) {
	o := testServeOpts(false)
	o.maxPending = 1
	o.rate = 2000
	p, run := runServe(t, o, serveReal)
	s := run.summary()
	var byClass int64
	for _, c := range s.classes {
		byClass += c.shed
	}
	if byClass != s.overall.shed {
		t.Fatalf("per-class sheds sum to %d, total says %d", byClass, s.overall.shed)
	}
	for i, r := range run.reqs {
		if r.class != i%len(p.classes) {
			t.Fatalf("request %d filed under class %d", i, r.class)
		}
	}
	if s.overall.shed == 0 {
		t.Skip("queue of 1 never filled; timing too coarse to assert attribution")
	}
	// The report's per-class shed column carries the same attribution.
	var b bytes.Buffer
	writeServeSummary(&b, run)
	lines := strings.Split(b.String(), "\n")
	for i, c := range s.classes {
		name := run.classes[i].Name
		fields := strings.Fields(lines[2+i])
		if len(fields) < 4 || fields[0] != name || fields[3] != strconv.FormatInt(c.shed, 10) {
			t.Errorf("class %s shed %d, report row says %q", name, c.shed, lines[2+i])
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
	p, run := runServe(t, o, serveReal)
	if len(p.stamps) != want {
		t.Fatalf("plan holds %d stamps, arrival.Times gives %d", len(p.stamps), want)
	}
	s := run.summary()
	if got := s.admitted + s.overall.shed; got != int64(want) {
		t.Fatalf("admitted %d + shed %d = %d of %d arrivals", s.admitted, s.overall.shed, got, want)
	}
	if s.overall.count != s.admitted {
		t.Fatalf("latency count %d != admitted %d", s.overall.count, s.admitted)
	}
}

// smokeArgs is the short open-loop run CI drives through both engines: a
// few hundred loops under Poisson arrivals across three QoS classes.
var smokeArgs = []string{"-arrivals", "poisson", "-rate", "200", "-duration", "1s", "-seed", "1",
	"-classes", "gold:8,silver:4,bronze:1", "-iters", "5000", "-spin", "50"}

// smokeVirtualReport is what the virtual smoke run prints. Virtual time is
// seed-deterministic, so the admitted count and every latency percentile,
// exact over the records, are pinned to the digit; a change here is a change in what the simulator or
// the arrival stream computes, and must be deliberate.
const smokeVirtualReport = `virtual serve: poisson arrivals, 194 admitted, 0 shed, span 993.176ms
   class  weight    count     shed          p50          p95          p99
    gold       8       65        0      1.594ms      2.533ms      2.864ms
  silver       4       65        0      1.617ms      3.294ms      3.795ms
  bronze       1       64        0      2.105ms      5.131ms      6.347ms
overall: p50/p95/p99 1.63ms / 4.678ms / 5.451ms, throughput 195.33 loops/s, max in-flight 4
`

// smokeBatchReport is what a virtual batch of two loops, one per class,
// prints: each class's one latency at every percentile, the exact
// percentiles of the two latencies overall, and the batch's makespan as the
// span. These are the per-loop latencies and the makespan the closed-loop
// runner printed for the same two loops as weights 8 and 1.
const smokeBatchReport = `virtual serve: batch arrivals, 2 admitted, 0 shed, span 484.017ms
   class  weight    count     shed          p50          p95          p99
       a       8        1        0    271.718ms    271.718ms    271.718ms
       b       1        1        0    484.017ms    484.017ms    484.017ms
overall: p50/p95/p99 377.868ms / 473.402ms / 481.894ms, throughput 4.13 loops/s, max in-flight 2
`

// TestServeSmoke drives the service tier end to end through run, from argv: the
// open-loop stream once per engine, and a batch in virtual time. The real
// run also exercises sampled capture: the record file it leaves must decode
// and self-diff clean, and a later write that fails must not damage it.
func TestServeSmoke(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		var out bytes.Buffer
		if err := run([]string{"-loops", "2", "-iters", "200000", "-sched", "dynamic,16", "-classes", "a:8,b:1", "-virtual"}, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != smokeBatchReport {
			t.Errorf("virtual batch report moved; got:\n%s\nwant:\n%s", out.String(), smokeBatchReport)
		}
	})
	t.Run("virtual", func(t *testing.T) {
		var out bytes.Buffer
		if err := run(append(smokeArgs, "-virtual"), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != smokeVirtualReport {
			t.Errorf("virtual smoke report moved; got:\n%s\nwant:\n%s", out.String(), smokeVirtualReport)
		}
	})
	t.Run("real", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "smoke.jsonl")
		var out bytes.Buffer
		if err := run(append(smokeArgs, "-sample", "8", "-sample-budget", "128", "-record", path), &out); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out.String(), "real serve: poisson arrivals, ") || !strings.Contains(out.String(), "(self-diff clean)") {
			t.Errorf("real smoke report:\n%s", out.String())
		}
		f, err := os.Open(path)
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
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec.Events[0].Cost = math.NaN()
		if err := writeServeRecord(path, rec); err == nil {
			t.Fatal("a record with a NaN cost was written")
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("failed write changed the file: %d bytes before, %d after", len(before), len(after))
		}
		if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
			t.Errorf("failed write left %d files in the directory, want only the record", len(entries))
		}
	})
}

// TestServeRealMaxInFlight: a batch of four loops on a four-worker fleet,
// whose bodies wait until all four are submitted, is in flight all at once.
// Sampling the registry's in-flight count before each Submit missed the loop
// being admitted and printed 3.
func TestServeRealMaxInFlight(t *testing.T) {
	o := serveOpts{
		loops: 4, iters: 20_000, threads: 4, classesCSV: "std", maxPending: 64, shed: true,
		pl: amp.PlatformA(), sched: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5},
		policyName: "wrr", spin: 200, hold: true,
	}
	var out bytes.Buffer
	if err := serve(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), " 4 admitted, ") || !strings.HasSuffix(out.String(), ", max in-flight 4\n") {
		t.Errorf("four loops admitted at once, report:\n%s", out.String())
	}
}

// TestRefusesBadFlags: the flag parse refuses a bad -platform or -sched and
// names the flag, and a thread count the platform cannot hold is refused
// with one range in both engines; nothing is printed.
func TestRefusesBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-platform", "no-such-platform"}, `invalid value "no-such-platform" for flag -platform: `},
		{[]string{"-sched", "fastest"}, `invalid value "fastest" for flag -sched: `},
		{[]string{"-threads", "9"}, "rt: thread count 9 out of range [0,8] (0 selects the platform core count)"},
		{[]string{"-threads", "9", "-virtual"}, "sim: thread count 9 out of range [0,8] (0 selects the platform core count)"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-loops", "1", "-iters", "100"}, c.args...), &out)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%v: error %v, want %q...", c.args, err, c.want)
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q", c.args, out.String())
		}
	}
}
