// aidserve exercises the multi-loop registry (rt.Registry) — the model of
// a server executing parallel-loop requests from many users at once — in
// two modes.
//
// The default closed-loop mode replays a fixed batch of simultaneous
// submissions against one shared worker fleet and reports aggregate
// throughput plus per-loop latency:
//
//	aidserve                                  # 8 loops, wrr, aid-dynamic
//	aidserve -loops 16 -iters 500000          # heavier replay
//	aidserve -policy fcfs                     # run-to-completion baseline
//	aidserve -weights 4,1,1,1,1,1,1,1         # weighted tenants (one per loop)
//	aidserve -virtual                         # same replay in virtual time
//
// The open-loop service mode (-arrivals) runs the registry as a long-lived
// server: an arrival process submits loops over wall time regardless of
// completions, tenants are assigned QoS classes that map to fairness
// weights, a bounded pending queue sheds (or backpressures) the excess,
// and the report is latency percentiles plus throughput:
//
//	aidserve -arrivals poisson -rate 50 -duration 2s
//	aidserve -arrivals bursty -classes gold:8,bronze:1 -max-pending 32
//	aidserve -arrivals diurnal -virtual        # same stream in virtual time
//	aidserve -arrivals poisson -sample 8 -record run.jsonl
//	                                           # sampled capture -> run record
//	aidserve -arrivals poisson -metrics :9090 -metrics-interval 500ms
//	                                           # live Prometheus scrape + stderr ticker
//
// Real mode runs goroutine workers with emulated asymmetry and reports
// wall-clock numbers; -virtual replays the identical submission pattern in
// the discrete-event engine (sim.RunLoops), where the results are exactly
// reproducible.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amp"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	loops := flag.Int("loops", 8, "closed-loop mode: number of simultaneous loop submissions")
	iters := flag.Int64("iters", 200_000, "iterations per loop")
	threads := flag.Int("threads", 0, "fleet size (0 = platform core count)")
	platformText := flag.String("platform", "A", "platform: a registry name or a platform JSON file")
	schedText := flag.String("sched", "aid-dynamic,1,5", "loop schedule in GOOMP_SCHEDULE syntax")
	policyName := flag.String("policy", "wrr", "fairness policy: wrr|fcfs")
	weightsCSV := flag.String("weights", "", "closed-loop mode: comma-separated per-loop weights (default all 1)")
	spin := flag.Int("spin", 200, "per-iteration spin work units (scaled into virtual cost under -virtual)")
	virtual := flag.Bool("virtual", false, "replay in the discrete-event engine instead of real goroutines")

	arrivals := flag.String("arrivals", "", "open-loop service mode: arrival process (poisson|bursty|diurnal)")
	rate := flag.Float64("rate", 50, "mean arrival rate in loops/sec")
	duration := flag.Duration("duration", 2*time.Second, "length of the arrival window")
	seed := flag.Uint64("seed", 1, "arrival and sampling seed")
	classesCSV := flag.String("classes", "std", "QoS classes as name:weight list, assigned round-robin (e.g. gold:8,silver:4,bronze:1)")
	maxPending := flag.Int("max-pending", 64, "bound on loops admitted but not yet complete (real mode)")
	shed := flag.Bool("shed", true, "when the pending queue is full, shed the arrival; false blocks the submitter (backpressure)")
	sample := flag.Int("sample", 0, "capture every Nth admitted loop for the run record (0 = off, real mode)")
	sampleBudget := flag.Int("sample-budget", 256, "per-loop event budget of sampled captures (0 = unbounded)")
	recordPath := flag.String("record", "", "write the sampled run record as JSONL to this path (real mode, needs -sample)")
	metricsAddr := flag.String("metrics", "", "serve live runtime metrics in Prometheus text format on this address (real mode, e.g. :9090)")
	metricsInterval := flag.Duration("metrics-interval", 0, "print a one-line service summary to stderr at this period (real mode, 0 = off)")
	flag.Parse()

	pl, err := amp.Resolve(*platformText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aidserve:", err)
		os.Exit(1)
	}
	if *arrivals != "" {
		err = serve(serveOpts{
			kind: *arrivals, rate: *rate, duration: *duration, seed: *seed,
			classesCSV: *classesCSV, maxPending: *maxPending, shed: *shed,
			sampleEvery: *sample, sampleBudget: *sampleBudget,
			recordPath: *recordPath, metricsAddr: *metricsAddr, metricsInterval: *metricsInterval,
			iters: *iters, threads: *threads, pl: pl, schedText: *schedText,
			policyName: *policyName, spin: *spin, virtual: *virtual,
		}, os.Stdout)
	} else {
		err = run(*loops, *iters, *threads, pl, *schedText, *policyName, *weightsCSV, *spin, *virtual)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aidserve:", err)
		os.Exit(1)
	}
}

// parseWeights expands the -weights list over nloops submissions. Fewer
// weights than loops cycle (a short prefix names the heavy tenants); more
// weights than loops is an error — the surplus used to be dropped
// silently, hiding typos in the loop count.
func parseWeights(csv string, nloops int) ([]int, error) {
	weights := make([]int, nloops)
	for i := range weights {
		weights[i] = 1
	}
	if csv == "" {
		return weights, nil
	}
	parts := strings.Split(csv, ",")
	if len(parts) > nloops {
		return nil, fmt.Errorf("%d weights for %d loops; drop the surplus or raise -loops", len(parts), nloops)
	}
	vals := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad weight %q", p)
		}
		vals[i] = v
	}
	for i := range weights {
		weights[i] = vals[i%len(vals)]
	}
	return weights, nil
}

// virtualNsPerSpinUnit converts -spin work units into the discrete-event
// engine's per-iteration cost, so the knob shapes virtual runs exactly as
// it shapes real ones. The factor keeps the default -spin 200 at the
// engine's long-standing 10_000 units per iteration.
const virtualNsPerSpinUnit = 50

func virtualCost(spin int) sim.UniformCost {
	return sim.UniformCost{PerIter: float64(spin) * virtualNsPerSpinUnit}
}

// spanOf is the fleet's makespan over a batch of results: last end minus
// earliest start. The old per-loop maximum of End-Start equals this only
// when every loop starts together — under staggered arrivals it reports a
// single loop's latency, not the run's length.
func spanOf(results []sim.LoopResult) time.Duration {
	minStart, maxEnd := results[0].Start, results[0].End
	for _, r := range results[1:] {
		if r.Start < minStart {
			minStart = r.Start
		}
		if r.End > maxEnd {
			maxEnd = r.End
		}
	}
	return time.Duration(maxEnd - minStart)
}

func run(loops int, iters int64, threads int, pl *amp.Platform, schedText, policyName, weightsCSV string, spin int, virtual bool) error {
	if loops <= 0 {
		return fmt.Errorf("need at least one loop, got %d", loops)
	}
	if iters < 0 {
		return fmt.Errorf("negative iteration count %d", iters)
	}
	sched, err := core.ParseSchedule(schedText)
	if err != nil {
		return err
	}
	weights, err := parseWeights(weightsCSV, loops)
	if err != nil {
		return err
	}
	policy, err := fair.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	if virtual {
		return runVirtual(loops, iters, threads, pl, sched, policy, weights, spin)
	}
	return runReal(loops, iters, threads, pl, sched, policy, weights, spin)
}

// spinIter burns deterministic CPU work for one iteration; the result is
// returned through an atomic sink so the compiler cannot elide it.
func spinIter(units int) float64 {
	x := 1.0
	for i := 0; i < units; i++ {
		x += 1.0 / (x + float64(i))
	}
	return x
}

func report(w io.Writer, label string, weights []int, latencies []time.Duration, totalIters int64, makespan time.Duration) {
	fmt.Fprintf(w, "%s: %d loops, makespan %v, aggregate %.2f Miters/s\n",
		label, len(latencies), makespan.Round(time.Microsecond),
		float64(totalIters)/makespan.Seconds()/1e6)
	fmt.Fprintf(w, "%6s %7s %14s\n", "loop", "weight", "latency")
	xs := make([]float64, len(latencies))
	for i, lat := range latencies {
		fmt.Fprintf(w, "%6d %7d %14v\n", i, weights[i], lat.Round(time.Microsecond))
		xs[i] = float64(lat)
	}
	mn, _ := stats.Min(xs)
	md, _ := stats.Median(xs)
	p95, _ := stats.Percentile(xs, 95)
	mx, _ := stats.Max(xs)
	fmt.Fprintf(w, "latency min/median/p95/max: %v / %v / %v / %v\n",
		durNs(mn), durNs(md), durNs(p95), durNs(mx))
}

func durNs(ns float64) time.Duration {
	return time.Duration(ns).Round(time.Microsecond)
}

func runReal(loops int, iters int64, threads int, pl *amp.Platform, sched core.Schedule, policy fair.Policy, weights []int, spin int) error {
	reg, err := rt.NewRegistry(rt.RegistryConfig{Platform: pl, NThreads: threads, Policy: policy})
	if err != nil {
		return err
	}
	defer reg.Close()

	var sink atomic.Int64
	handles := make([]*rt.Loop, loops)
	start := time.Now()
	for i := range handles {
		handles[i], err = reg.Submit(rt.LoopRequest{
			N:        iters,
			Schedule: sched,
			Weight:   weights[i],
			Body: func(_ int, lo, hi int64) {
				var acc float64
				for j := lo; j < hi; j++ {
					acc += spinIter(spin)
				}
				sink.Add(int64(acc) + (hi - lo))
			},
		})
		if err != nil {
			return err
		}
	}
	latencies := make([]time.Duration, loops)
	for i, h := range handles {
		h.Wait()
		latencies[i] = h.Latency()
	}
	makespan := time.Since(start)
	fmt.Printf("fleet %d workers, schedule %s, policy %s (wall clock)\n",
		reg.NThreads(), sched, policy.Name())
	report(os.Stdout, "real", weights, latencies, int64(loops)*iters, makespan)
	return nil
}

func runVirtual(loops int, iters int64, threads int, pl *amp.Platform, sched core.Schedule, policy fair.Policy, weights []int, spin int) error {
	if threads == 0 {
		threads = pl.NumCores()
	}
	cfg := sim.Config{
		Platform: pl,
		NThreads: threads,
		Binding:  amp.BindBS,
		Factory:  sched.Factory(),
	}
	specs := make([]sim.LoopSpec, loops)
	for i := range specs {
		specs[i] = sim.LoopSpec{
			Name:    fmt.Sprintf("loop-%d", i),
			NI:      iters,
			Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.2},
			Cost:    virtualCost(spin),
			Weight:  weights[i],
		}
	}
	results, err := sim.RunLoops(cfg, specs, policy, 0)
	if err != nil {
		return err
	}
	latencies := make([]time.Duration, loops)
	for i, r := range results {
		latencies[i] = time.Duration(r.End - r.Start)
	}
	fmt.Printf("fleet %d workers, schedule %s, policy %s (virtual time)\n",
		threads, sched, policy.Name())
	report(os.Stdout, "virtual", weights, latencies, int64(loops)*iters, spanOf(results))
	return nil
}

// ---- open-loop service mode ----

type serveOpts struct {
	kind         string // arrival process name
	rate         float64
	duration     time.Duration
	seed         uint64
	classesCSV   string
	maxPending   int
	shed         bool
	sampleEvery  int
	sampleBudget int
	recordPath   string

	metricsAddr     string        // Prometheus endpoint address ("" = off)
	metricsInterval time.Duration // stderr summary period (0 = off)

	iters      int64
	threads    int
	pl         *amp.Platform
	schedText  string
	policyName string
	spin       int
	virtual    bool
}

// classTally is one QoS class's account: a mergeable log-bucketed latency
// histogram (so a live scrape and the end-of-run report read the same
// quantiles, within the histogram's error bound) and the class's shed count
// — sheds are attributed by arrival index, so a full queue charges the
// class whose request was turned away.
type classTally struct {
	class fair.Class
	hist  *stats.Histogram
	shed  int64
}

// serveSummary is one service run's outcome, separated from printing so
// tests can assert on it directly. mu guards every mutable field against
// the live metrics scrapers; the submitter and completion goroutines take
// it for each update.
type serveSummary struct {
	engine      string
	arrivals    string
	mu          sync.Mutex
	admitted    int64
	shed        int64
	maxInFlight int
	elapsed     time.Duration
	classes     []*classTally
	overall     *stats.Histogram
	record      *trace.Record // sampled captures, when -sample is on
}

func newServeSummary(engine, arrivals string, classes []fair.Class) *serveSummary {
	s := &serveSummary{
		engine:   engine,
		arrivals: arrivals,
		overall:  stats.NewHistogram(),
	}
	for _, c := range classes {
		s.classes = append(s.classes, &classTally{
			class: c,
			hist:  stats.NewHistogram(),
		})
	}
	return s
}

// writeMetrics renders one scrape: the registry's runtime counters (when
// metrics are on), the service's admission counters, and the per-class
// latency summaries. The body is built under the summary lock and written
// out in one piece, so a slow scraper never stalls the submitter.
func (s *serveSummary) writeMetrics(w io.Writer, reg *rt.Registry) error {
	var buf bytes.Buffer
	if reg != nil && reg.MetricsEnabled() {
		if err := obs.WritePrometheus(&buf, "", reg.MetricsSnapshot()); err != nil {
			return err
		}
	}
	s.mu.Lock()
	e := &bufErr{buf: &buf}
	e.printf("# HELP aidserve_admitted_total Loops admitted to the registry.\n# TYPE aidserve_admitted_total counter\naidserve_admitted_total %d\n", s.admitted)
	e.printf("# HELP aidserve_shed_total Arrivals shed by QoS class.\n# TYPE aidserve_shed_total counter\n")
	for _, c := range s.classes {
		e.printf("aidserve_shed_total{class=%q} %d\n", c.class.Name, c.shed)
	}
	if e.err == nil {
		for i, c := range s.classes {
			if e.err = obs.WriteLatencySummary(&buf, "aidserve_latency_ns", c.class.Name, c.hist, i == 0); e.err != nil {
				break
			}
		}
	}
	s.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// bufErr is a tiny sticky-error printf over a buffer.
type bufErr struct {
	buf *bytes.Buffer
	err error
}

func (e *bufErr) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.buf, format, args...)
	}
}

// progressLine prints the periodic one-line stderr summary of a live run.
func (s *serveSummary) progressLine(w io.Writer, inFlight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.overall.Count() == 0 {
		fmt.Fprintf(w, "aidserve: admitted %d, shed %d, in-flight %d, no completions yet\n",
			s.admitted, s.shed, inFlight)
		return
	}
	p50, _ := s.overall.Percentile(50)
	p95, _ := s.overall.Percentile(95)
	p99, _ := s.overall.Percentile(99)
	fmt.Fprintf(w, "aidserve: admitted %d, shed %d, in-flight %d, p50/p95/p99 %v / %v / %v\n",
		s.admitted, s.shed, inFlight, durNs(p50), durNs(p95), durNs(p99))
}

func serve(o serveOpts, w io.Writer) error {
	if o.iters < 0 {
		return fmt.Errorf("negative iteration count %d", o.iters)
	}
	if o.maxPending <= 0 {
		return fmt.Errorf("-max-pending must be positive, got %d", o.maxPending)
	}
	if o.pl == nil {
		o.pl = amp.PlatformA()
	}
	classes, err := fair.ParseClasses(o.classesCSV)
	if err != nil {
		return err
	}
	sched, err := core.ParseSchedule(o.schedText)
	if err != nil {
		return err
	}
	policy, err := fair.ParsePolicy(o.policyName)
	if err != nil {
		return err
	}
	if o.recordPath != "" && (o.virtual || o.sampleEvery <= 0) {
		return fmt.Errorf("-record needs real mode with -sample > 0")
	}
	if o.virtual && (o.metricsAddr != "" || o.metricsInterval > 0) {
		return fmt.Errorf("-metrics and -metrics-interval need real mode; the virtual engine has no live run to scrape")
	}
	var sum *serveSummary
	if o.virtual {
		sum, err = serveVirtual(o, classes, sched, policy)
	} else {
		sum, err = serveReal(o, classes, sched, policy)
	}
	if err != nil {
		return err
	}
	writeServeSummary(w, sum)
	if o.recordPath != "" {
		if err := writeServeRecord(o.recordPath, sum.record); err != nil {
			return err
		}
		fmt.Fprintf(w, "record: %d sampled loops, %d events -> %s (self-diff clean)\n",
			len(sum.record.Loops), len(sum.record.Events), o.recordPath)
	}
	return nil
}

// serveReal runs the open-loop service against the real-goroutine
// registry: arrivals are generated over wall time independent of
// completions, and a semaphore bounds the loops admitted but not yet
// complete — the pending queue. A full queue either sheds the arrival or
// blocks the submitter, per -shed.
func serveReal(o serveOpts, classes []fair.Class, sched core.Schedule, policy fair.Policy) (*serveSummary, error) {
	proc, err := arrival.New(o.kind, o.rate, o.seed)
	if err != nil {
		return nil, err
	}
	reg, err := rt.NewRegistry(rt.RegistryConfig{Platform: o.pl, NThreads: o.threads, Policy: policy, Metrics: true})
	if err != nil {
		return nil, err
	}
	defer reg.Close()

	sum := newServeSummary("real", proc.Name(), classes)
	if o.metricsAddr != "" {
		stop, err := serveMetrics(o.metricsAddr, reg, sum)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	if o.metricsInterval > 0 {
		done := make(chan struct{})
		defer close(done)
		go func() {
			tick := time.NewTicker(o.metricsInterval)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					sum.progressLine(os.Stderr, reg.InFlight())
				}
			}
		}()
	}
	sem := make(chan struct{}, o.maxPending)
	var (
		wg      sync.WaitGroup
		sink    atomic.Int64
		sampled []*rt.Loop
	)
	body := func(_ int, lo, hi int64) {
		var acc float64
		for j := lo; j < hi; j++ {
			acc += spinIter(o.spin)
		}
		sink.Add(int64(acc) + (hi - lo))
	}

	start := time.Now()
	deadline := start.Add(o.duration)
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		gap := time.Duration(proc.Gap(int64(now.Sub(start))))
		if now.Add(gap).After(deadline) {
			break
		}
		time.Sleep(gap)

		// The class is the arrival's, chosen by arrival index — shed or
		// admitted, request i belongs to the same tenant. Assigning by
		// admission count (as this used to) made the shed count
		// unattributable: nobody could say which class the full queue
		// turned away.
		tally := sum.classes[i%len(classes)]
		if o.shed {
			select {
			case sem <- struct{}{}:
			default:
				sum.mu.Lock()
				sum.shed++
				tally.shed++
				sum.mu.Unlock()
				continue
			}
		} else {
			sem <- struct{}{}
		}
		sum.mu.Lock()
		if inflight := reg.InFlight(); inflight > sum.maxInFlight {
			sum.maxInFlight = inflight
		}
		admitted := sum.admitted
		sum.mu.Unlock()
		req := rt.LoopRequest{
			Name:     fmt.Sprintf("%s-%d", tally.class.Name, i),
			N:        o.iters,
			Schedule: sched,
			Weight:   tally.class.Weight,
			Body:     body,
		}
		if o.sampleEvery > 0 && int(admitted)%o.sampleEvery == 0 {
			req.Capture = true
			req.CaptureCompact = true
			req.CaptureMaxEvents = o.sampleBudget
		}
		h, err := reg.Submit(req)
		if err != nil {
			<-sem
			return nil, err
		}
		sum.mu.Lock()
		sum.admitted++
		sum.mu.Unlock()
		if req.Capture {
			sampled = append(sampled, h)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Wait()
			lat := float64(h.Latency())
			sum.mu.Lock()
			sum.overall.Add(lat)
			tally.hist.Add(lat)
			sum.mu.Unlock()
			<-sem
		}()
	}
	wg.Wait()
	sum.elapsed = time.Since(start)
	if sum.admitted == 0 {
		return nil, fmt.Errorf("no arrivals within %v at rate %g/s", o.duration, o.rate)
	}
	if len(sampled) > 0 {
		rec, err := reg.BuildRecord(sampled...)
		if err != nil {
			return nil, err
		}
		sum.record = rec
	}
	return sum, nil
}

// serveMetrics starts the Prometheus endpoint for a live run: GET /metrics
// (or any path) answers with the registry's runtime counters plus the
// service's admission and latency families. It returns a stop function that
// closes the listener; in-flight scrapes are abandoned with the run over.
func serveMetrics(addr string, reg *rt.Registry, sum *serveSummary) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics %s: %w", addr, err)
	}
	srv := &http.Server{Handler: metricsHandler(reg, sum)}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "aidserve: metrics on http://%s/metrics\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// metricsHandler is the scrape handler behind -metrics, split out so tests
// can hit it through httptest without binding a port flag.
func metricsHandler(reg *rt.Registry, sum *serveSummary) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := sum.writeMetrics(w, reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// serveVirtual replays the same arrival stream in the discrete-event
// engine: arrival stamps become LoopSpec.Arrive and every arrival is
// admitted (the simulator has no pending bound, so shed stays 0). The
// numbers are exactly reproducible for a given seed.
func serveVirtual(o serveOpts, classes []fair.Class, sched core.Schedule, policy fair.Policy) (*serveSummary, error) {
	proc, err := arrival.New(o.kind, o.rate, o.seed)
	if err != nil {
		return nil, err
	}
	times := arrival.Times(proc, 0, int64(o.duration))
	if len(times) == 0 {
		return nil, fmt.Errorf("no arrivals within %v at rate %g/s", o.duration, o.rate)
	}
	pl := o.pl
	threads := o.threads
	if threads == 0 {
		threads = pl.NumCores()
	}
	cfg := sim.Config{
		Platform: pl,
		NThreads: threads,
		Binding:  amp.BindBS,
		Factory:  sched.Factory(),
	}
	specs := make([]sim.LoopSpec, len(times))
	for i, t := range times {
		class := classes[i%len(classes)]
		specs[i] = sim.LoopSpec{
			Name:    fmt.Sprintf("%s-%d", class.Name, i),
			NI:      o.iters,
			Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.2},
			Cost:    virtualCost(o.spin),
			Weight:  class.Weight,
			Arrive:  t,
		}
	}
	results, err := sim.RunLoops(cfg, specs, policy, 0)
	if err != nil {
		return nil, err
	}
	sum := newServeSummary("virtual", proc.Name(), classes)
	for i, r := range results {
		lat := float64(r.End - r.Start)
		sum.overall.Add(lat)
		sum.classes[i%len(classes)].hist.Add(lat)
	}
	sum.admitted = int64(len(results))
	sum.elapsed = spanOf(results)
	return sum, nil
}

func writeServeSummary(w io.Writer, s *serveSummary) {
	fmt.Fprintf(w, "%s serve: %s arrivals, %d admitted, %d shed, span %v\n",
		s.engine, s.arrivals, s.admitted, s.shed, s.elapsed.Round(time.Microsecond))
	fmt.Fprintf(w, "%8s %7s %8s %8s %12s %12s %12s\n", "class", "weight", "count", "shed", "p50", "p95", "p99")
	for _, c := range s.classes {
		if c.hist.Count() == 0 {
			fmt.Fprintf(w, "%8s %7d %8d %8d %12s %12s %12s\n", c.class.Name, c.class.Weight, 0, c.shed, "-", "-", "-")
			continue
		}
		p50, _ := c.hist.Percentile(50)
		p95, _ := c.hist.Percentile(95)
		p99, _ := c.hist.Percentile(99)
		fmt.Fprintf(w, "%8s %7d %8d %8d %12v %12v %12v\n",
			c.class.Name, c.class.Weight, c.hist.Count(), c.shed, durNs(p50), durNs(p95), durNs(p99))
	}
	p50, _ := s.overall.Percentile(50)
	p95, _ := s.overall.Percentile(95)
	p99, _ := s.overall.Percentile(99)
	fmt.Fprintf(w, "overall: p50/p95/p99 %v / %v / %v, throughput %.2f loops/s, max in-flight %d\n",
		durNs(p50), durNs(p95), durNs(p99),
		float64(s.admitted)/s.elapsed.Seconds(), s.maxInFlight)
}

// writeServeRecord persists the sampled run record and checks it survives
// a self-diff — a corrupt or internally inconsistent record fails loudly
// at write time rather than at the replay that needed it.
func writeServeRecord(path string, rec *trace.Record) error {
	if rec == nil {
		return fmt.Errorf("no sampled loops to record")
	}
	rep := replay.Diff(rec, rec, 1.0)
	if rep.Regressions > 0 {
		return fmt.Errorf("sampled record fails its self-diff:\n%s", rep)
	}
	return trace.WriteFile(path, rec)
}
