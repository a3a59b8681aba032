package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/arrival"
	"repro/internal/fair"
	"repro/internal/rt"
	"repro/internal/xrand"
)

// Open-loop serving. Independent clients send on their own clock, so the
// generator submits at the materialized due times whatever the fleet is
// doing, and every latency is taken from the due time: a stalled generator
// or a backed-up fleet shows as latency, never as lighter load.
const (
	serveClasses = "gold:8,silver:4,bronze:1" // by arrival index, see classOf
	serveSLOms   = 25.0                       // latency limit behind slo_ok_frac
	// Constant rates, never calibrated at run time. On the 2-CPU box the
	// 1B+1S fleet sustains about 570 of these loops per second, so lo is
	// under a quarter and hi under a half of capacity (README, "Rates").
	serveRateLo = 125.0
	serveRateHi = 250.0
	// windowSeconds is the nominal window length; a run has as many windows
	// as fit, fully drained in between. A percentile is taken per window and
	// the metric is the median over windows, so a host stall spoils a window,
	// not the number.
	windowSeconds = 1.5
	lateLimitMs   = 5.0 // generator lateness p99 beyond which a run is suspect
)

var serveSchedules = []string{"aid-dynamic,1,5", "dynamic,16", "aid-hybrid,80,4"} // by arrival index

// classOf is the class of arrival i: the classes rotate once per round of
// schedules, so every class meets every schedule equally often and the
// classes' latencies differ by weight alone.
func classOf(i, classes int) int { return i / len(serveSchedules) % classes }

// tripBlock is the trip-count mix {2048: 70 %, 8192: 25 %, 32768: 5 %} as one
// block of 20 arrivals. Each block is shuffled, not drawn independently:
// 5 % of the requests carry a third of the work, and independent draws would
// make the offered load itself vary by several percent between seeds. The
// mix is also why the gated tail is the 90th percentile and not the 95th:
// the 95th sits exactly on the step between the 8192s and the 32768s.
var tripBlock = [20]int64{
	2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048, 2048,
	8192, 8192, 8192, 8192, 8192,
	32768,
}

// arrivalStream is the generated input of one window: due times (ns from
// window start) and trip counts.
type arrivalStream struct {
	due []int64
	n   []int64
}

// genStream makes one window's input from the seed.
func genStream(seed uint64, rate float64, windowNs int64) (arrivalStream, error) {
	proc, err := arrival.New("poisson", rate, seed)
	if err != nil {
		return arrivalStream{}, err
	}
	st := arrivalStream{due: arrival.Times(proc, 0, windowNs)}
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	block := tripBlock
	for i := range st.due {
		k := i % len(block)
		if k == 0 {
			for j := len(block) - 1; j > 0; j-- {
				x := rng.Intn(j + 1)
				block[j], block[x] = block[x], block[j]
			}
		}
		st.n = append(st.n, block[k])
	}
	if len(st.due) == 0 {
		return st, fmt.Errorf("no arrivals in a %.1fs window at %.0f/s", float64(windowNs)/1e9, rate)
	}
	return st, nil
}

// request is one submitted loop and the stamps taken around it, all in ns
// from window start.
type request struct {
	due        int64
	sent       int64 // Submit called
	admitted   int64 // Submit returned
	done       int64 // Wait returned
	first      atomic.Int64
	n          int64
	class      int
	ok         bool
	submitFail bool
}

// sleepUntil blocks until the clock reads due. nanosleep, not time.Sleep:
// the Go timer wakes an idle P through a millisecond-granular poll, which
// alone would make the generator about half a millisecond late.
func sleepUntil(clock func() int64, due int64) {
	for {
		d := due - clock()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

// serveWindow drives one window open loop: one generator (the calling
// goroutine, on its own OS thread) and one waiter per request that only
// blocks in Loop.Wait. It returns once every admitted loop has drained.
func serveWindow(reg *rt.Registry, st arrivalStream, classes []fair.Class, scheds []rt.Schedule,
	stamped bool, tr *tracer, parent int) []request {
	reqs := make([]request, len(st.due))
	cells := make([]cell, len(st.due)*reg.NThreads())
	bodies := make([]func(int, int64, int64), len(reqs))
	base := time.Now()
	clock := func() int64 { return int64(time.Since(base)) }
	for i := range reqs {
		rq := &reqs[i]
		rq.due, rq.n, rq.class = st.due[i], st.n[i], classOf(i, len(classes))
		c := cells[i*reg.NThreads() : (i+1)*reg.NThreads()]
		if stamped {
			bodies[i] = stampedBody(c, serveSteps, &rq.first, clock)
		} else {
			bodies[i] = newBody(c, serveSteps)
		}
	}

	runtime.GC() // start every window from the same heap state
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var wg sync.WaitGroup
	base = time.Now()
	spanBase := int64(0) // window clock to tracer clock
	if tr != nil {
		spanBase = tr.now() - clock()
	}
	for i := range reqs {
		rq := &reqs[i]
		sleepUntil(clock, rq.due)
		rq.sent = clock()
		l, err := reg.Submit(rt.LoopRequest{
			N:        rq.n,
			Schedule: scheds[i%len(scheds)],
			Weight:   classes[rq.class].Weight,
			Body:     bodies[i],
		})
		rq.admitted = clock()
		if err != nil {
			rq.submitFail = true
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Wait()
			rq.done = clock()
		}()
	}
	wg.Wait()
	for i := range reqs {
		rq := &reqs[i]
		rq.ok = !rq.submitFail && coveredOnce(cells[i*reg.NThreads():(i+1)*reg.NThreads()], rq.n)
		if tr != nil && !rq.submitFail {
			tr.add("rt.Submit", parent, int64(i), spanBase+rq.sent, spanBase+rq.admitted)
			tr.add("rt.Wait", parent, int64(i), spanBase+rq.admitted, spanBase+rq.done)
		}
	}
	return reqs
}

// windowStats are one window's numbers.
type windowStats struct {
	n, failed          int
	p50, p90, p95, p99 float64 // ms from due time
	okFrac             float64 // share of requests due that finished within the SLO
	lateP99            float64 // ms, generator lateness
	itersPerS          float64 // iterations completed per second with work in flight
	submitUs           float64
	admitToFirstUs     float64
	firstToDoneMs      float64
	inflightMax        int
	goldBronzeP50Ratio float64
}

// latencyMs is the request's latency as its client sees it: from the moment
// it was due, not the moment the generator got round to sending it.
func (rq *request) latencyMs() float64 { return float64(rq.done-rq.due) / 1e6 }

func summarizeWindow(reqs []request, classes []fair.Class, stamped bool) windowStats {
	ws := windowStats{n: len(reqs)}
	var lat, late, submit, toFirst, toDone []float64
	byClass := make([][]float64, len(classes))
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	var iters int64
	within := 0
	for i := range reqs {
		rq := &reqs[i]
		late = append(late, float64(rq.sent-rq.due)/1e6)
		if !rq.ok {
			ws.failed++ // a failed or refused request also misses the SLO
			continue
		}
		ms := rq.latencyMs()
		lat = append(lat, ms)
		byClass[rq.class] = append(byClass[rq.class], ms)
		if ms <= serveSLOms {
			within++
		}
		iters += rq.n
		edges = append(edges, edge{rq.sent, +1}, edge{rq.done, -1})
		submit = append(submit, float64(rq.admitted-rq.sent)/1e3)
		if stamped {
			if first := rq.first.Load(); first > 0 {
				toFirst = append(toFirst, float64(first-rq.admitted)/1e3)
				toDone = append(toDone, float64(rq.done-first)/1e6)
			}
		}
	}
	sort.Float64s(lat)
	if len(lat) > 0 { // none when every request of the window failed
		ws.p50, ws.p90 = percentileSorted(lat, 50), percentileSorted(lat, 90)
		ws.p95, ws.p99 = percentileSorted(lat, 95), percentileSorted(lat, 99)
	}
	ws.okFrac = float64(within) / float64(len(reqs))
	ws.lateP99 = percentile(late, 99)
	ws.submitUs, ws.admitToFirstUs, ws.firstToDoneMs = median(submit), median(toFirst), median(toDone)
	if b := median(byClass[len(byClass)-1]); b > 0 {
		ws.goldBronzeP50Ratio = median(byClass[0]) / b
	}
	// Sweep the sent/done edges: time with at least one loop in flight is
	// the denominator of the service rate, and the peak is inflight_max.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta
	})
	var busyNs, since int64
	depth := 0
	for _, e := range edges {
		if depth == 0 {
			since = e.at
		}
		depth += e.delta
		if depth > ws.inflightMax {
			ws.inflightMax = depth
		}
		if depth == 0 {
			busyNs += e.at - since
		}
	}
	if busyNs > 0 {
		ws.itersPerS = float64(iters) / (float64(busyNs) / 1e9)
	}
	return ws
}

// column is one number of every window, in window order.
func column(all []windowStats, f func(windowStats) float64) []float64 {
	xs := make([]float64, len(all))
	for i, ws := range all {
		xs[i] = f(ws)
	}
	return xs
}

// serveSpec is one open-loop workload: a name and its constant rate.
type serveSpec struct {
	name string
	rate float64
}

var (
	serveLo = serveSpec{"serve_open_lo", serveRateLo}
	serveHi = serveSpec{"serve_open_hi", serveRateHi}
)

// serveEnv is a set-up serve workload: the fleet and every window's input.
type serveEnv struct {
	reg     *rt.Registry
	classes []fair.Class
	scheds  []rt.Schedule
	streams []arrivalStream
}

func (cfg runCfg) warmRequests() int {
	if cfg.smoke {
		return 8
	}
	return 40
}

func serveWindowNs(cfg runCfg) int64 {
	if cfg.smoke {
		return int64(100 * time.Millisecond)
	}
	return int64(windowSeconds * float64(time.Second))
}

func serveWindowCount(cfg runCfg, seconds float64) int {
	if cfg.smoke {
		return 2
	}
	if n := int(seconds / windowSeconds); n > 4 {
		return n
	}
	return 4
}

func (w serveSpec) setup(cfg runCfg, windows int, metrics bool) (*serveEnv, error) {
	pl, err := loadPlatform(cfg.dir)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{}
	if env.classes, err = fair.ParseClasses(serveClasses); err != nil {
		return nil, err
	}
	for _, text := range serveSchedules {
		env.scheds = append(env.scheds, mustSchedule(text))
	}
	for i := 0; i < windows; i++ {
		st, err := genStream(cfg.seed*1000+uint64(i), w.rate, serveWindowNs(cfg))
		if err != nil {
			return nil, err
		}
		env.streams = append(env.streams, st)
	}
	if env.reg, err = newFleet(pl, metrics); err != nil {
		return nil, err
	}
	// Warm-up: the head of the first window, as fast as the fleet takes it.
	warm := arrivalStream{n: env.streams[0].n}
	if count := cfg.warmRequests(); len(warm.n) > count {
		warm.n = warm.n[:count]
	}
	warm.due = make([]int64, len(warm.n))
	warmed := serveWindow(env.reg, warm, env.classes, env.scheds, false, nil, -1)
	for i := range warmed {
		if !warmed[i].ok {
			env.reg.Close()
			return nil, fmt.Errorf("%s: warm-up request failed its coverage check", w.name)
		}
	}
	return env, nil
}

func (w serveSpec) run(cfg runCfg) (outcome, error) {
	if cfg.tr != nil {
		return w.runTraced(cfg)
	}
	windows := serveWindowCount(cfg, cfg.seconds)
	var env *serveEnv
	setups, err := timeSetups(cfg, func() (err error) {
		env, err = w.setup(cfg, windows, false)
		return err
	}, func() { env.reg.Close() })
	if err != nil {
		return outcome{}, err
	}
	defer env.reg.Close()

	var all []windowStats
	stopSpinners, awake := keepAwake()
	before := allocBytes()
	for _, st := range env.streams {
		all = append(all, summarizeWindow(serveWindow(env.reg, st, env.classes, env.scheds, false, nil, -1), env.classes, false))
	}
	allocated := allocBytes() - before
	stopSpinners()

	out := outcome{metrics: metricSet{}}
	perWindow := 0
	for _, ws := range all {
		out.attempted += ws.n
		out.failed += ws.failed
		perWindow = ws.n
	}
	p50s := column(all, func(ws windowStats) float64 { return ws.p50 })
	p90s := column(all, func(ws windowStats) float64 { return ws.p90 })
	out.metrics["setup_s"] = medianOf(setups, "s")
	out.metrics["iters_per_s"] = medianOf(column(all, func(ws windowStats) float64 { return ws.itersPerS }), "1/s")
	out.metrics["p50_ms"] = medianOf(p50s, "ms")
	out.metrics["p90_ms"] = medianOf(p90s, "ms")
	out.metrics["slo_ok_frac"] = medianOf(column(all, func(ws windowStats) float64 { return ws.okFrac }), "frac")
	out.metrics["alloc_kb_per_op"] = scalar(float64(allocated)/1024/float64(out.attempted), "kB")
	late := median(column(all, func(ws windowStats) float64 { return ws.lateP99 }))
	out.notes = append(out.notes,
		fmt.Sprintf("%d windows of about %d requests (highest percentile with ten samples beyond it: p%g); generator lateness p99 %.2f ms",
			len(all), perWindow, highestPercentile(perWindow), late),
		fmt.Sprintf("per-window p50 ms %.2f, p90 ms %.2f", p50s, p90s))
	if late > lateLimitMs {
		out.suspect = fmt.Sprintf("generator lateness p99 %.2f ms exceeds %.0f ms: the run measured the host scheduler", late, lateLimitMs)
	}
	if !awake {
		out.suspect = "no SCHED_IDLE spinners (sched_setscheduler refused): the CPUs were free to clock down between requests"
	}
	return out, nil
}

// runTraced: a few untraced reference windows, then windows with
// RegistryConfig.Metrics on, first-chunk stamps in the body and a span pair
// per request, then the layer probes.
func (w serveSpec) runTraced(cfg runCfg) (outcome, error) {
	windows := serveWindowCount(cfg, cfg.seconds*0.6)
	refWindows := min(3, windows/2)
	env, err := w.setup(cfg, windows, false)
	if err != nil {
		return outcome{}, err
	}
	stopSpinners, _ := keepAwake()
	defer stopSpinners()
	out := outcome{metrics: metricSet{}}
	var refP50 []float64
	for _, st := range env.streams[:refWindows] {
		ws := summarizeWindow(serveWindow(env.reg, st, env.classes, env.scheds, false, nil, -1), env.classes, false)
		refP50 = append(refP50, ws.p50)
		out.attempted += ws.n
		out.failed += ws.failed
	}
	env.reg.Close()

	if env, err = w.setup(cfg, windows, true); err != nil {
		return outcome{}, err
	}
	root := cfg.tr.begin("workload", -1, 0)
	var all []windowStats
	for i, st := range env.streams[refWindows:] {
		win := cfg.tr.begin("window", root, int64(i))
		all = append(all, summarizeWindow(serveWindow(env.reg, st, env.classes, env.scheds, true, cfg.tr, win), env.classes, true))
		cfg.tr.end(win)
	}
	cfg.tr.end(root)
	snap := env.reg.MetricsSnapshot()
	env.reg.Close()

	pick := func(f func(windowStats) float64) float64 { return median(column(all, f)) }
	for _, ws := range all {
		out.attempted += ws.n
		out.failed += ws.failed
	}
	m := out.metrics
	m["rt.p95_ms"] = scalar(pick(func(ws windowStats) float64 { return ws.p95 }), "ms")
	m["rt.p99_ms"] = scalar(pick(func(ws windowStats) float64 { return ws.p99 }), "ms")
	m["rt.submit_us"] = scalar(pick(func(ws windowStats) float64 { return ws.submitUs }), "us")
	m["rt.admit_to_first_us"] = scalar(pick(func(ws windowStats) float64 { return ws.admitToFirstUs }), "us")
	m["rt.first_to_done_ms"] = scalar(pick(func(ws windowStats) float64 { return ws.firstToDoneMs }), "ms")
	m["rt.inflight_max"] = scalar(pick(func(ws windowStats) float64 { return float64(ws.inflightMax) }), "count")
	m["fair.gold_bronze_p50_ratio"] = scalar(pick(func(ws windowStats) float64 { return ws.goldBronzeP50Ratio }), "ratio")
	m["arrival.late_p99_ms"] = scalar(pick(func(ws windowStats) float64 { return ws.lateP99 }), "ms")
	if total := snap.BusyNs + snap.SchedNs + snap.IdleNs; total > 0 {
		m["rt.sched_share"] = scalar(float64(snap.SchedNs)/float64(total), "frac")
		m["rt.idle_share"] = scalar(float64(snap.IdleNs)/float64(total), "frac")
	}
	if snap.Chunks > 0 {
		m["rt.steal_frac"] = scalar(float64(snap.StealsSamePkg+snap.StealsCross)/float64(snap.Chunks), "frac")
	}
	// Latency is "lower is better", so the overhead is traced over untraced.
	m["bench.trace_overhead_pct"] = scalar(overheadPct(pick(func(ws windowStats) float64 { return ws.p50 }), median(refP50)), "%")
	if err := runProbes(cfg, m); err != nil {
		return outcome{}, err
	}
	return out, nil
}
