// aidserve exercises the multi-loop registry (rt.Registry) — the model of
// a server executing parallel-loop requests from many users at once — and
// reports per-class latency percentiles plus throughput.
//
// Every run is one request stream: a list of arrival stamps, request i
// arriving stamps[i] after the run starts and belonging to QoS class
// i mod len(classes), whose weight is its fairness share. With -arrivals an
// open-loop process stamps requests over -duration regardless of
// completions; without it the stream is a batch of -loops requests, all
// stamped 0:
//
//	aidserve                                  # batch of 8 loops, wrr, aid-dynamic
//	aidserve -loops 16 -iters 500000          # heavier batch
//	aidserve -policy fcfs                     # run-to-completion baseline
//	aidserve -loops 2 -classes a:8,b:1        # weighted tenants, one per loop
//	aidserve -arrivals poisson -rate 50 -duration 2s
//	aidserve -arrivals bursty -classes gold:8,bronze:1 -max-pending 32
//	aidserve -arrivals diurnal -virtual        # same stream in virtual time
//	aidserve -arrivals poisson -sample 8 -record run.jsonl
//	                                           # sampled capture -> run record
//	aidserve -arrivals poisson -metrics :9090 -metrics-interval 500ms
//	                                           # live Prometheus scrape + stderr ticker
//
// Real mode runs goroutine workers with emulated asymmetry and reports
// wall-clock numbers. Its submitter sleeps until each stamp, so one that
// falls behind catches up and every stamp is submitted; a bound on loops
// admitted but not yet complete (-max-pending) sheds or backpressures the
// excess, a batch's included. -virtual replays the same stamps in the
// discrete-event engine (sim.RunLoops), which admits every request and whose
// results are exactly reproducible.
package main

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
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
	var o serveOpts
	flag.IntVar(&o.loops, "loops", 8, "batch mode (no -arrivals): number of loops submitted at once")
	flag.Int64Var(&o.iters, "iters", 200_000, "iterations per loop")
	flag.IntVar(&o.threads, "threads", 0, "fleet size (0 = platform core count)")
	platformText := flag.String("platform", "A", "platform: a registry name or a platform JSON file")
	flag.StringVar(&o.schedText, "sched", "aid-dynamic,1,5", "loop schedule in GOOMP_SCHEDULE syntax")
	flag.StringVar(&o.policyName, "policy", "wrr", "fairness policy: wrr|fcfs")
	flag.IntVar(&o.spin, "spin", 200, "per-iteration spin work units (scaled into virtual cost under -virtual)")
	flag.BoolVar(&o.virtual, "virtual", false, "replay in the discrete-event engine instead of real goroutines")

	flag.StringVar(&o.kind, "arrivals", "", "open-loop mode: arrival process (poisson|bursty|diurnal)")
	flag.Float64Var(&o.rate, "rate", 50, "mean arrival rate in loops/sec")
	flag.DurationVar(&o.duration, "duration", 2*time.Second, "length of the arrival window")
	flag.Uint64Var(&o.seed, "seed", 1, "arrival and sampling seed")
	flag.StringVar(&o.classesCSV, "classes", "std", "QoS classes as name:weight list, request i in class i mod len (e.g. gold:8,silver:4,bronze:1)")
	flag.IntVar(&o.maxPending, "max-pending", 64, "bound on loops admitted but not yet complete (real mode)")
	flag.BoolVar(&o.shed, "shed", true, "when the pending queue is full, shed the arrival; false blocks the submitter (backpressure)")
	flag.IntVar(&o.sampleEvery, "sample", 0, "capture every Nth admitted loop for the run record (0 = off, real mode)")
	flag.IntVar(&o.sampleBudget, "sample-budget", 256, "per-loop event budget of sampled captures, compacted then trimmed (0 = unbounded, uncompacted)")
	flag.StringVar(&o.recordPath, "record", "", "write the sampled run record as JSONL to this path (real mode, needs -sample)")
	flag.StringVar(&o.metricsAddr, "metrics", "", "serve live runtime metrics in Prometheus text format on this address (real mode, e.g. :9090)")
	flag.DurationVar(&o.metricsInterval, "metrics-interval", 0, "print a one-line service summary to stderr at this period (real mode, 0 = off)")
	flag.Parse()

	pl, err := amp.Resolve(*platformText)
	if err == nil {
		o.pl = pl
		err = serve(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aidserve:", err)
		os.Exit(1)
	}
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

// span is one admitted loop's stay in the fleet: admitted at admit, its
// barrier released at done, in ns from the start of the run.
type span struct{ admit, done int64 }

// maxInFlight is the most loops admitted and not yet done at once: the
// deepest overlap of the half-open [admit, done) intervals, so a loop that
// is released at the instant another is admitted does not overlap it.
func maxInFlight(spans []span) int {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		edges = append(edges, edge{s.admit, +1}, edge{s.done, -1})
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return a.delta - b.delta // a release before an admission at one instant
	})
	depth, most := 0, 0
	for _, e := range edges {
		depth += e.delta
		most = max(most, depth)
	}
	return most
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

func durNs(ns float64) time.Duration {
	return time.Duration(ns).Round(time.Microsecond)
}

type serveOpts struct {
	loops        int    // batch size when kind is ""
	kind         string // arrival process name ("" = batch)
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

// plan is a service run resolved from its options: the one request stream
// both engines read, and what every request runs under.
type plan struct {
	arrivals string       // the stream's name in the report: a process name or "batch"
	stamps   []int64      // request i arrives stamps[i] ns after the run starts
	classes  []fair.Class // request i belongs to classes[i%len(classes)]
	sched    core.Schedule
	policy   fair.Policy
}

// newPlan checks o and builds its request stream: the arrival process's
// stamps over [0, duration), or o.loops stamps at 0 when no process is named.
func newPlan(o serveOpts) (p plan, err error) {
	if o.iters < 0 {
		return p, fmt.Errorf("negative iteration count %d", o.iters)
	}
	if o.maxPending <= 0 {
		return p, fmt.Errorf("-max-pending must be positive, got %d", o.maxPending)
	}
	if o.recordPath != "" && (o.virtual || o.sampleEvery <= 0) {
		return p, fmt.Errorf("-record needs real mode with -sample > 0")
	}
	if o.virtual && (o.metricsAddr != "" || o.metricsInterval > 0) {
		return p, fmt.Errorf("-metrics and -metrics-interval need real mode; the virtual engine has no live run to scrape")
	}
	if p.classes, err = fair.ParseClasses(o.classesCSV); err != nil {
		return p, err
	}
	if p.sched, err = core.ParseSchedule(o.schedText); err != nil {
		return p, err
	}
	if p.policy, err = fair.ParsePolicy(o.policyName); err != nil {
		return p, err
	}
	if o.kind == "" {
		if o.loops <= 0 {
			return p, fmt.Errorf("need at least one loop, got %d", o.loops)
		}
		p.arrivals, p.stamps = "batch", make([]int64, o.loops)
		return p, nil
	}
	proc, err := arrival.New(o.kind, o.rate, o.seed)
	if err != nil {
		return p, err
	}
	p.arrivals, p.stamps = proc.Name(), arrival.Times(proc, 0, int64(o.duration))
	if len(p.stamps) == 0 {
		return p, fmt.Errorf("no arrivals within %v at rate %g/s", o.duration, o.rate)
	}
	return p, nil
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
	engine   string
	arrivals string
	mu       sync.Mutex
	admitted int64
	shed     int64
	spans    []span // one per completed loop
	elapsed  time.Duration
	classes  []*classTally
	overall  *stats.Histogram
	record   *trace.Record // sampled captures, when -sample is on
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
// out in one piece, so a slow scraper never stalls the submitter. Writes to
// the buffer cannot fail, so only the final write reports an error.
func (s *serveSummary) writeMetrics(w io.Writer, reg *rt.Registry) error {
	var buf bytes.Buffer
	if reg != nil && reg.MetricsEnabled() {
		obs.WritePrometheus(&buf, "", reg.MetricsSnapshot())
	}
	s.mu.Lock()
	fmt.Fprintf(&buf, "# HELP aidserve_admitted_total Loops admitted to the registry.\n# TYPE aidserve_admitted_total counter\naidserve_admitted_total %d\n", s.admitted)
	fmt.Fprintf(&buf, "# HELP aidserve_shed_total Arrivals shed by QoS class.\n# TYPE aidserve_shed_total counter\n")
	for _, c := range s.classes {
		fmt.Fprintf(&buf, "aidserve_shed_total{class=%q} %d\n", c.class.Name, c.shed)
	}
	for i, c := range s.classes {
		obs.WriteLatencySummary(&buf, "aidserve_latency_ns", c.class.Name, c.hist, i == 0)
	}
	s.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
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
	if o.pl == nil {
		o.pl = amp.PlatformA()
	}
	p, err := newPlan(o)
	if err != nil {
		return err
	}
	run := serveReal
	if o.virtual {
		run = serveVirtual
	}
	sum, err := run(o, p)
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

// serveReal runs the request stream against the real-goroutine registry:
// request i is submitted at stamps[i] on the wall clock, independent of
// completions, and a semaphore bounds the loops admitted but not yet
// complete — the pending queue. A full queue either sheds the arrival or
// blocks the submitter, per -shed.
func serveReal(o serveOpts, p plan) (*serveSummary, error) {
	reg, err := rt.NewRegistry(rt.RegistryConfig{Platform: o.pl, NThreads: o.threads, Policy: p.policy,
		Metrics: o.metricsAddr != ""})
	if err != nil {
		return nil, err
	}
	defer reg.Close()

	sum := newServeSummary("real", p.arrivals, p.classes)
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
	for i, stamp := range p.stamps {
		// Sleep to the stamp, not for a gap from now: a submitter that fell
		// behind (a slow Submit, a late wake-up, backpressure) catches up
		// on the next stamps instead of stretching the stream past its
		// window and losing its tail.
		time.Sleep(time.Until(start.Add(time.Duration(stamp))))

		// The class is the arrival's, chosen by arrival index — shed or
		// admitted, request i belongs to the same tenant, so a shed is
		// charged to the class the full queue turned away.
		tally := sum.classes[i%len(p.classes)]
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
		admitted := sum.admitted
		sum.mu.Unlock()
		req := rt.LoopRequest{
			Name:     fmt.Sprintf("%s-%d", tally.class.Name, i),
			N:        o.iters,
			Schedule: p.sched,
			Weight:   tally.class.Weight,
			Body:     body,
		}
		if o.sampleEvery > 0 && int(admitted)%o.sampleEvery == 0 {
			req.Capture = true
			req.CaptureMaxEvents = o.sampleBudget
		}
		admit := int64(time.Since(start))
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
			lat := h.Latency()
			sum.mu.Lock()
			sum.overall.Add(float64(lat))
			tally.hist.Add(float64(lat))
			sum.spans = append(sum.spans, span{admit, admit + int64(lat)})
			sum.mu.Unlock()
			<-sem
		}()
	}
	wg.Wait()
	sum.elapsed = time.Since(start)
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

// serveVirtual replays the request stream in the discrete-event engine:
// each stamp becomes a LoopSpec.Arrive and every request is admitted (the
// simulator has no pending bound, so shed stays 0). The numbers are exactly
// reproducible for a given seed.
func serveVirtual(o serveOpts, p plan) (*serveSummary, error) {
	threads := o.threads
	if threads == 0 {
		threads = o.pl.NumCores()
	}
	cfg := sim.Config{
		Platform: o.pl,
		NThreads: threads,
		Binding:  amp.BindBS,
		Factory:  p.sched.Factory(),
	}
	specs := make([]sim.LoopSpec, len(p.stamps))
	for i, t := range p.stamps {
		class := p.classes[i%len(p.classes)]
		specs[i] = sim.LoopSpec{
			Name:    fmt.Sprintf("%s-%d", class.Name, i),
			NI:      o.iters,
			Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.2},
			Cost:    virtualCost(o.spin),
			Weight:  class.Weight,
			Arrive:  t,
		}
	}
	results, err := sim.RunLoops(cfg, specs, p.policy, 0)
	if err != nil {
		return nil, err
	}
	sum := newServeSummary("virtual", p.arrivals, p.classes)
	for i, r := range results {
		lat := float64(r.End - r.Start)
		sum.overall.Add(lat)
		sum.classes[i%len(p.classes)].hist.Add(lat)
		sum.spans = append(sum.spans, span{r.Start, r.End})
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
		float64(s.admitted)/s.elapsed.Seconds(), maxInFlight(s.spans))
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
