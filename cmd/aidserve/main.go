// aidserve exercises the multi-loop registry (rt.Registry) — the model of
// a server executing parallel-loop requests from many users at once — and
// reports per-class latency percentiles plus throughput. Each runner files
// one record per request, and summarize turns the records into every number
// the report, the -metrics scrape and the -metrics-interval line show.
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
//	                                           # live Prometheus scrape and /debug/pprof/,
//	                                           # stderr ticker
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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amp"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aidserve:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("aidserve", flag.ContinueOnError)
	o := serveOpts{sched: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}}
	fs.IntVar(&o.loops, "loops", 8, "batch mode (no -arrivals): number of loops submitted at once")
	fs.Int64Var(&o.iters, "iters", 200_000, "iterations per loop")
	fs.IntVar(&o.threads, "threads", 0, "fleet size (0 = platform core count)")
	pl := amp.PlatformFlag{Platform: amp.PlatformA()}
	fs.Var(&pl, "platform", "platform: a registry name or a platform JSON file")
	fs.Var(&o.sched, "sched", "loop schedule in GOOMP_SCHEDULE syntax")
	fs.StringVar(&o.policyName, "policy", "wrr", "fairness policy: wrr|fcfs")
	fs.IntVar(&o.spin, "spin", 200, "per-iteration spin work units (scaled into virtual cost under -virtual)")
	fs.BoolVar(&o.virtual, "virtual", false, "replay in the discrete-event engine instead of real goroutines")

	fs.StringVar(&o.kind, "arrivals", "", "open-loop mode: arrival process (poisson|bursty|diurnal)")
	fs.Float64Var(&o.rate, "rate", 50, "mean arrival rate in loops/sec")
	fs.DurationVar(&o.duration, "duration", 2*time.Second, "length of the arrival window")
	fs.Uint64Var(&o.seed, "seed", 1, "arrival and sampling seed")
	fs.StringVar(&o.classesCSV, "classes", "std", "QoS classes as name:weight list, request i in class i mod len (e.g. gold:8,silver:4,bronze:1)")
	fs.IntVar(&o.maxPending, "max-pending", 64, "bound on loops admitted but not yet complete (real mode)")
	fs.BoolVar(&o.shed, "shed", true, "when the pending queue is full, shed the arrival; false blocks the submitter (backpressure)")
	fs.IntVar(&o.sampleEvery, "sample", 0, "capture every Nth admitted loop for the run record (0 = off, real mode)")
	fs.IntVar(&o.sampleBudget, "sample-budget", 256, "per-loop event budget of sampled captures, compacted then trimmed (0 = unbounded, uncompacted)")
	fs.StringVar(&o.recordPath, "record", "", "write the sampled run record as JSONL to this path (real mode, needs -sample)")
	fs.StringVar(&o.metricsAddr, "metrics", "", "serve live runtime metrics in Prometheus text format, and Go profiles under /debug/pprof/, on this address (real mode, e.g. :9090)")
	fs.DurationVar(&o.metricsInterval, "metrics-interval", 0, "print a one-line service summary to stderr at this period (real mode, 0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.pl = pl.Platform
	return serve(o, w)
}

// virtualNsPerSpinUnit converts -spin work units into the discrete-event
// engine's per-iteration cost, so the knob shapes virtual runs exactly as
// it shapes real ones. The factor keeps the default -spin 200 at the
// engine's long-standing 10_000 units per iteration.
const virtualNsPerSpinUnit = 50

func virtualCost(spin int) sim.UniformCost {
	return sim.UniformCost{PerIter: float64(spin) * virtualNsPerSpinUnit}
}

// maxInFlight is the most loops admitted and not yet done at once: the
// deepest overlap of the finished requests' half-open [admit, done)
// intervals, so a loop that is released at the instant another is admitted
// does not overlap it.
func maxInFlight(done []request) int {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(done))
	for _, r := range done {
		edges = append(edges, edge{r.admit, +1}, edge{r.done, -1})
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
	sched      core.Schedule
	policyName string
	spin       int
	virtual    bool

	// hold keeps every body of a real run waiting until the submitter is
	// done, so that a batch within -max-pending is in flight all at once.
	// No flag sets it: it is a seam for the tests.
	hold bool
}

// plan is a service run resolved from its options: the one request stream
// both engines read, and the classes and policy it runs under.
type plan struct {
	arrivals string       // the stream's name in the report: a process name or "batch"
	stamps   []int64      // request i arrives stamps[i] ns after the run starts
	classes  []fair.Class // request i belongs to classes[i%len(classes)]
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

// request is one arrival's record, the one thing a runner hands on: its
// class (an index into the plan's classes), its arrival stamp, and either
// shed or its stay in the fleet — admitted at admit, its barrier released at
// done — all in ns from the start of the run. done is -1 while the loop runs.
type request struct {
	class       int
	arrive      int64
	shed        bool
	admit, done int64
}

// serveRun is one service run: its engine, its plan and one record per
// arrival so far, in arrival order. mu guards reqs against the
// live scrapers; the submitter and the completion goroutines take it for
// each update.
type serveRun struct {
	engine string
	plan
	mu     sync.Mutex
	reqs   []request
	record *trace.Record // sampled captures, when -sample is on
}

// summary is summarize over the records filed so far.
func (r *serveRun) summary() summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return summarize(len(r.classes), r.reqs)
}

// quantiles are the latency percentiles every view shows.
var quantiles = [...]float64{50, 95, 99}

// tally is one class's account, or the run's: finished loops, their total
// latency, sheds, and the exact percentiles q (NaN while none has finished).
type tally struct {
	count, shed int64
	sum         float64
	q           [len(quantiles)]float64
}

// summary holds every number the report, the scrape and the ticker line show.
type summary struct {
	classes     []tally
	overall     tally
	admitted    int64         // finished and running loops
	span        time.Duration // first admission to last release
	throughput  float64       // admitted loops per second of span
	maxInFlight int
}

// summarize is the one function from records to numbers. A latency is done
// minus admit, and a running loop counts as admitted but has no latency yet.
// Sheds are charged to the class whose arrival was turned away.
func summarize(nclass int, reqs []request) summary {
	s := summary{classes: make([]tally, nclass)}
	lats := make([][]float64, nclass+1) // by class, then overall
	var done []request
	first, last := int64(math.MaxInt64), int64(0)
	for _, r := range reqs {
		if r.shed {
			s.classes[r.class].shed++
			s.overall.shed++
			continue
		}
		s.admitted++
		if r.done < 0 {
			continue
		}
		lat := float64(r.done - r.admit)
		lats[r.class] = append(lats[r.class], lat)
		lats[nclass] = append(lats[nclass], lat)
		done = append(done, r)
		first, last = min(first, r.admit), max(last, r.done)
	}
	for i := range s.classes {
		s.classes[i].fill(lats[i])
	}
	s.overall.fill(lats[nclass])
	if len(done) > 0 {
		s.span = time.Duration(last - first)
		s.throughput = float64(s.admitted) / s.span.Seconds()
	}
	s.maxInFlight = maxInFlight(done)
	return s
}

// fill sets t's count, sum and percentiles from its latencies.
func (t *tally) fill(lats []float64) {
	t.count = int64(len(lats))
	for _, l := range lats {
		t.sum += l
	}
	for i, pct := range quantiles {
		var err error
		if t.q[i], err = stats.Percentile(lats, pct); err != nil {
			t.q[i] = math.NaN() // no finished loop: NaN, per Prometheus convention
		}
	}
}

// writeMetrics renders one scrape: the registry's runtime counters (when
// metrics are on), the service's admission counters, and the per-class
// latency summary family. The body is built in a buffer and written out in
// one piece, so a slow scraper never stalls the submitter. Writes to the
// buffer cannot fail, so only the final write reports an error.
func (r *serveRun) writeMetrics(w io.Writer, reg *rt.Registry) error {
	var buf bytes.Buffer
	if reg != nil && reg.MetricsEnabled() {
		obs.WritePrometheus(&buf, "", reg.MetricsSnapshot())
	}
	s := r.summary()
	fmt.Fprintf(&buf, "# HELP aidserve_admitted_total Loops admitted to the registry.\n# TYPE aidserve_admitted_total counter\naidserve_admitted_total %d\n", s.admitted)
	fmt.Fprintf(&buf, "# HELP aidserve_shed_total Arrivals shed by QoS class.\n# TYPE aidserve_shed_total counter\n")
	for i, c := range s.classes {
		fmt.Fprintf(&buf, "aidserve_shed_total{class=%q} %d\n", r.classes[i].Name, c.shed)
	}
	fmt.Fprintf(&buf, "# HELP aidserve_latency_ns Request latency by QoS class.\n# TYPE aidserve_latency_ns summary\n")
	for i, c := range s.classes {
		name := r.classes[i].Name
		for j, pct := range quantiles {
			fmt.Fprintf(&buf, "aidserve_latency_ns{class=%q,quantile=\"%g\"} %g\n", name, pct/100, c.q[j])
		}
		fmt.Fprintf(&buf, "aidserve_latency_ns_sum{class=%q} %g\naidserve_latency_ns_count{class=%q} %d\n", name, c.sum, name, c.count)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// progressLine prints the periodic one-line stderr summary of a live run.
func (r *serveRun) progressLine(w io.Writer, inFlight int) {
	s := r.summary()
	if s.overall.count == 0 {
		fmt.Fprintf(w, "aidserve: admitted %d, shed %d, in-flight %d, no completions yet\n",
			s.admitted, s.overall.shed, inFlight)
		return
	}
	fmt.Fprintf(w, "aidserve: admitted %d, shed %d, in-flight %d, p50/p95/p99 %v / %v / %v\n",
		s.admitted, s.overall.shed, inFlight, durNs(s.overall.q[0]), durNs(s.overall.q[1]), durNs(s.overall.q[2]))
}

func serve(o serveOpts, w io.Writer) error {
	p, err := newPlan(o)
	if err != nil {
		return err
	}
	runner := serveReal
	if o.virtual {
		runner = serveVirtual
	}
	run, err := runner(o, p)
	if err != nil {
		return err
	}
	writeServeSummary(w, run)
	if o.recordPath != "" {
		if err := writeServeRecord(o.recordPath, run.record); err != nil {
			return err
		}
		fmt.Fprintf(w, "record: %d sampled loops, %d events -> %s (self-diff clean)\n",
			len(run.record.Loops), len(run.record.Events), o.recordPath)
	}
	return nil
}

// serveReal runs the request stream against the real-goroutine registry:
// request i is submitted at stamps[i] on the wall clock, independent of
// completions, and a semaphore bounds the loops admitted but not yet
// complete — the pending queue. A full queue either sheds the arrival or
// blocks the submitter, per -shed.
func serveReal(o serveOpts, p plan) (*serveRun, error) {
	reg, err := rt.NewRegistry(rt.RegistryConfig{Platform: o.pl, NThreads: o.threads, Policy: p.policy,
		Metrics: o.metricsAddr != ""})
	if err != nil {
		return nil, err
	}
	defer reg.Close()

	run := &serveRun{engine: "real", plan: p}
	if o.metricsAddr != "" {
		stop, err := serveMetrics(o.metricsAddr, reg, run)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	if o.metricsInterval > 0 {
		// Stop the ticker before returning: no line follows the run.
		done, stopped := make(chan struct{}), make(chan struct{})
		defer func() { close(done); <-stopped }()
		go func() {
			defer close(stopped)
			tick := time.NewTicker(o.metricsInterval)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					run.progressLine(os.Stderr, reg.InFlight())
				}
			}
		}()
	}
	sem := make(chan struct{}, o.maxPending)
	var (
		wg       sync.WaitGroup
		sink     atomic.Int64
		sampled  []*rt.Loop
		admitted int
	)
	body := func(_ int, lo, hi int64) { sink.Add(kernels.Spin(lo, hi, o.spin)) }
	submitted := make(chan struct{})
	release := sync.OnceFunc(func() { close(submitted) })
	defer release() // a failed Submit returns before the release below
	if o.hold {
		spin := body
		body = func(tid int, lo, hi int64) { <-submitted; spin(tid, lo, hi) }
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
		class := i % len(p.classes)
		if o.shed {
			select {
			case sem <- struct{}{}:
			default:
				run.mu.Lock()
				run.reqs = append(run.reqs, request{class: class, arrive: stamp, shed: true})
				run.mu.Unlock()
				continue
			}
		} else {
			sem <- struct{}{}
		}
		req := rt.LoopRequest{
			Name:     fmt.Sprintf("%s-%d", p.classes[class].Name, i),
			N:        o.iters,
			Schedule: o.sched,
			Weight:   p.classes[class].Weight,
			Body:     body,
		}
		if o.sampleEvery > 0 && admitted%o.sampleEvery == 0 {
			req.Capture = true
			req.CaptureMaxEvents = o.sampleBudget
		}
		admit := int64(time.Since(start))
		h, err := reg.Submit(req)
		if err != nil {
			<-sem
			return nil, err
		}
		admitted++
		run.mu.Lock() // request i's record is reqs[i]: every earlier arrival filed one
		run.reqs = append(run.reqs, request{class: class, arrive: stamp, admit: admit, done: -1})
		run.mu.Unlock()
		if req.Capture {
			sampled = append(sampled, h)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.Wait()
			run.mu.Lock()
			run.reqs[i].done = admit + int64(h.Latency())
			run.mu.Unlock()
			<-sem
		}(i)
	}
	release()
	wg.Wait()
	if len(sampled) > 0 {
		rec, err := reg.BuildRecord(sampled...)
		if err != nil {
			return nil, err
		}
		run.record = rec
	}
	return run, nil
}

// serveMetrics starts the Prometheus endpoint for a live run: GET /metrics
// (or any path outside /debug/pprof/) answers with the registry's runtime
// counters plus the service's admission and latency families, and
// /debug/pprof/ serves the Go runtime's profiles of the live run. It returns
// a stop function that closes the listener; in-flight scrapes are abandoned
// with the run over.
func serveMetrics(addr string, reg *rt.Registry, run *serveRun) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics %s: %w", addr, err)
	}
	srv := &http.Server{Handler: metricsHandler(reg, run)}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "aidserve: metrics on http://%s/metrics\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// metricsHandler is the handler behind -metrics, split out so tests can hit
// it through httptest without binding a port flag: net/http/pprof's handlers
// under /debug/pprof/ and the scrape everywhere else. Its mux is its own;
// the pprof import's registrations on http.DefaultServeMux are never served.
func metricsHandler(reg *rt.Registry, run *serveRun) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := run.writeMetrics(w, reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index) // the named profiles: heap, goroutine, block, ...
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveVirtual replays the request stream in the discrete-event engine:
// each stamp becomes a LoopSpec.Arrive and every request is admitted (the
// simulator has no pending bound, so nothing is shed). Request i's record
// is its loop's Start and End. The numbers are exactly reproducible for a
// given seed.
func serveVirtual(o serveOpts, p plan) (*serveRun, error) {
	cfg := sim.Config{
		Platform: o.pl,
		NThreads: o.threads,
		Binding:  amp.BindBS,
		Factory:  o.sched.Factory(),
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
	run := &serveRun{engine: "virtual", plan: p, reqs: make([]request, len(results))}
	for i, r := range results {
		run.reqs[i] = request{class: i % len(p.classes), arrive: p.stamps[i], admit: r.Start, done: r.End}
	}
	return run, nil
}

// writeServeSummary prints the end-of-run report. A class with no finished
// loop prints "-" for its percentiles.
func writeServeSummary(w io.Writer, run *serveRun) {
	s := run.summary()
	fmt.Fprintf(w, "%s serve: %s arrivals, %d admitted, %d shed, span %v\n",
		run.engine, run.arrivals, s.admitted, s.overall.shed, s.span.Round(time.Microsecond))
	fmt.Fprintf(w, "%8s %7s %8s %8s %12s %12s %12s\n", "class", "weight", "count", "shed", "p50", "p95", "p99")
	for i, c := range s.classes {
		q := []any{"-", "-", "-"}
		if c.count > 0 {
			q = []any{durNs(c.q[0]), durNs(c.q[1]), durNs(c.q[2])}
		}
		fmt.Fprintf(w, "%8s %7d %8d %8d %12v %12v %12v\n", run.classes[i].Name, run.classes[i].Weight, c.count, c.shed, q[0], q[1], q[2])
	}
	fmt.Fprintf(w, "overall: p50/p95/p99 %v / %v / %v, throughput %.2f loops/s, max in-flight %d\n",
		durNs(s.overall.q[0]), durNs(s.overall.q[1]), durNs(s.overall.q[2]), s.throughput, s.maxInFlight)
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
