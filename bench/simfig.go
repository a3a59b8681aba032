package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/exps"
	"repro/internal/fair"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// sim_figures runs the virtual engine, single-threaded: (a) the paper's
// figure sweeps, (b) a "virtual serve" — the serve_open_hi arrival stream
// through sim.RunLoops on the 1B+1S platform — and (c) a recorded burst of
// serve requests through encode, decode and exact replay. Simulated statistics must
// repeat to the digit; only host time may move.
const (
	// virtualRequests is the length of the virtual serve. A fixed count, not
	// a fixed span: sim.RunLoops scans every spec per event, so its host time
	// grows with the square of the count, and the count a span holds varies
	// with the seed.
	virtualRequests = 500
	simRepsPerSec   = 0.7     // a repetition takes about 1.4 s at the defining commit
	simRepLimitMs   = 10000.0 // host-time limit of a repetition behind slo_ok_frac: seven times the usual, so a slow host does not read 0
	gainRow         = "AID-hybrid vs. static(BS)"
)

// burstTrips is the trip-count mix of the recorded burst, the serve mix
// thinned to seven loops per schedule.
var burstTrips = []int64{2048, 2048, 2048, 2048, 8192, 8192, 32768}

// simEnv is a set-up sim_figures workload.
type simEnv struct {
	smoke                  bool // toy size: Platform A only, no Fig. 8
	platA, plat1b1s        *amp.Platform
	figPlatforms           []*amp.Platform // of the Fig. 6 and Fig. 7 sweeps
	stream                 arrivalStream
	specs                  []sim.LoopSpec
	factories              map[string]sim.SchedulerFactory
	classes                []fair.Class
	figIters               int64          // simulated iterations of the Fig. 6 and Fig. 7 sweeps
	burst                  []sim.LoopSpec // burstTrips under every serve schedule, admitted together
	serveIters, burstIters int64          // simulated iterations of the virtual serve, of the burst
}

func (e *simEnv) setup(cfg runCfg) error {
	var err error
	if e.plat1b1s, err = loadPlatform(cfg.dir); err != nil {
		return err
	}
	e.smoke = cfg.smoke
	e.platA = amp.PlatformA()
	e.figPlatforms = []*amp.Platform{e.platA, amp.PlatformB()}
	if e.smoke {
		e.figPlatforms = e.figPlatforms[:1]
	}
	if e.classes, err = fair.ParseClasses(serveClasses); err != nil {
		return err
	}
	var perScheme int64
	for _, w := range workloads.All() {
		for _, ph := range w.Program.Phases {
			if ph.Loop != nil {
				reps := int64(ph.Reps)
				if reps < 1 {
					reps = 1
				}
				perScheme += ph.Loop.NI * reps
			}
		}
	}
	e.figIters = int64(len(e.figPlatforms)*len(exps.Fig6Schemes())) * perScheme

	count := virtualRequests
	if cfg.smoke {
		count = 60
	}
	// Twice the span the count needs on average, cut to the count.
	span := 2 * float64(count) / serveRateHi
	if e.stream, err = genStream(cfg.seed*1000, serveRateHi, int64(span*float64(time.Second))); err != nil {
		return err
	}
	if len(e.stream.due) < count {
		return fmt.Errorf("virtual serve: %d arrivals, want %d", len(e.stream.due), count)
	}
	e.stream.due, e.stream.n = e.stream.due[:count], e.stream.n[:count]
	var scheds []rt.Schedule
	for _, text := range serveSchedules {
		scheds = append(scheds, mustSchedule(text))
	}
	// The body costs the same simulated time on the big core as the real
	// serve body does on an unthrottled worker.
	bigCPU := e.plat1b1s.NumCores() - 1
	cost := sim.UniformCost{PerIter: 400 * e.plat1b1s.Speed(bigCPU, amp.Profile{}, 1)}
	e.specs = make([]sim.LoopSpec, len(e.stream.due))
	e.factories = make(map[string]sim.SchedulerFactory, len(e.specs))
	e.serveIters = 0
	for i := range e.specs {
		name := "r" + strconv.Itoa(i)
		e.specs[i] = sim.LoopSpec{
			Name:   name,
			NI:     e.stream.n[i],
			Cost:   cost,
			Weight: e.classes[classOf(i, len(e.classes))].Weight,
			Arrive: e.stream.due[i],
		}
		e.factories[name] = scheds[i%len(scheds)].Factory()
		e.serveIters += e.stream.n[i]
	}
	// The burst does not come from the stream: which trip count meets which
	// schedule there depends on the seed, and with it the number of recorded
	// events (a record of the stream's first 32 requests was 17 to 29 MB).
	e.burst, e.burstIters = nil, 0
	for si, sched := range scheds {
		for ti, n := range burstTrips {
			name := "b" + strconv.Itoa(si) + "." + strconv.Itoa(ti)
			e.burst = append(e.burst, sim.LoopSpec{Name: name, NI: n, Cost: cost, Weight: e.classes[len(e.burst)%len(e.classes)].Weight})
			e.factories[name] = sched.Factory()
			e.burstIters += n
		}
	}
	// Warm-up, through both event loops: the zoo sweep and the burst, unrecorded.
	if _, err = exps.RunZoo(); err != nil {
		return err
	}
	_, err = sim.RunLoops(e.simConfig(false), e.burst, fair.NewWeightedRoundRobin(0), 0)
	return err
}

// simConfig is the virtual serve's machine: the 1B+1S platform, each loop
// under the schedule its arrival index selects.
func (e *simEnv) simConfig(metrics bool) sim.Config {
	return sim.Config{
		Platform: e.plat1b1s,
		NThreads: e.plat1b1s.NumCores(),
		Binding:  amp.BindBS,
		FactoryNamed: func(name string, info core.LoopInfo) (core.Scheduler, error) {
			return e.factories[name](info)
		},
		Metrics: metrics,
	}
}

// simRep is one repetition's host times and simulated results.
type simRep struct {
	fig6S, figOtherS            float64 // host seconds: Fig. 6+7 sweeps; Fig. 8, zoo, Table 2
	serveS, recordS, replayS    float64 // host seconds: the virtual serve; the recorded burst; replay.Exact
	encodeS, decodeS            float64
	wallS                       float64 // the whole repetition
	digest                      uint64  // of every simulated statistic
	gainPct                     float64
	latMs                       []float64 // simulated latencies of the virtual serve
	schedShare                  float64   // simulated, virtual serve (traced pass)
	recordBytes, recordedEvents int
	replayOK                    bool
}

func (e *simEnv) rep(tr *tracer, parent int, metrics bool) (simRep, error) {
	var r simRep
	repStart := time.Now()
	h := fnv.New64a()
	note := func(label string, v float64) {
		fmt.Fprintf(h, "%s=%x;", label, math.Float64bits(v))
	}
	timed := func(name string, f func() error) (float64, error) {
		sp := tr.begin(name, parent, 0)
		start := time.Now()
		err := f()
		d := time.Since(start).Seconds()
		tr.end(sp)
		return d, err
	}

	// (a) the figures
	var figs []exps.FigResult
	for _, pl := range e.figPlatforms {
		pl := pl
		d, err := timed("exps.RunFig6", func() error {
			f, err := exps.RunFig6(pl)
			figs = append(figs, f)
			return err
		})
		if err != nil {
			return r, err
		}
		r.fig6S += d
	}
	var fig8 exps.Fig8Result
	var zoo exps.ZooResult
	var tab exps.Table2
	var d float64
	var err error
	if !e.smoke {
		if d, err = timed("exps.RunFig8", func() (err error) { fig8, err = exps.RunFig8(); return }); err != nil {
			return r, err
		}
		r.figOtherS += d
	}
	if d, err = timed("exps.RunZoo", func() (err error) { zoo, err = exps.RunZoo(); return }); err != nil {
		return r, err
	}
	r.figOtherS += d
	d, _ = timed("exps.RunTable2", func() error { tab = exps.RunTable2(figs...); return nil })
	r.figOtherS += d
	for _, f := range figs {
		for _, a := range f.Apps {
			for _, label := range sortedKeys(a.TimeNs) {
				note(f.Platform+"/"+a.App+"/"+label, a.TimeNs[label])
			}
		}
	}
	for _, label := range fig8.Labels() {
		for _, app := range sortedKeys(fig8.Norm[label]) {
			note("fig8/"+label+"/"+app, fig8.Norm[label][app])
		}
	}
	for _, row := range zoo.Rows {
		note("zoo/"+row.Platform+"/"+row.Scheme, row.MakespanNs)
		note("zooJ/"+row.Platform+"/"+row.Scheme, row.EnergyJ)
	}
	for _, row := range tab.Rows {
		for _, pl := range sortedKeys(row.GmeanPct) {
			note("table2/"+row.Comparison+"/"+pl, row.GmeanPct[pl])
		}
		if row.Comparison == gainRow {
			r.gainPct = row.GmeanPct[e.platA.Name]
		}
	}

	// (b) the virtual serve: open loop, latencies from the admission stamps.
	simCfg := e.simConfig(metrics)
	var results []sim.LoopResult
	if r.serveS, err = timed("sim.RunLoops", func() (err error) {
		results, err = sim.RunLoops(simCfg, e.specs, fair.NewWeightedRoundRobin(0), 0)
		return
	}); err != nil {
		return r, err
	}
	var busy, sched int64
	for i, res := range results {
		r.latMs = append(r.latMs, float64(res.End-res.Start)/1e6)
		note("serve/"+strconv.Itoa(i), float64(res.End))
		if res.Metrics != nil {
			busy += res.Metrics.BusyNs
			sched += res.Metrics.SchedNs
		}
	}
	if busy+sched > 0 {
		r.schedShare = float64(sched) / float64(busy+sched)
	}

	// (c) record, encode, decode, exact replay. A record holds one event per
	// chunk grant (about 140 bytes each) and no admission times, so the
	// recorded run is a burst: serve requests admitted together.
	rec := trace.NewRecorder()
	simCfg.Recorder, simCfg.Metrics = rec, false
	if r.recordS, err = timed("sim.RunLoops", func() error {
		_, err := sim.RunLoops(simCfg, e.burst, fair.NewWeightedRoundRobin(0), 0)
		return err
	}); err != nil {
		return r, err
	}
	record := rec.Record()
	var buf bytes.Buffer
	if r.encodeS, err = timed("trace.Encode", func() error { return trace.EncodeJSONL(&buf, record) }); err != nil {
		return r, err
	}
	r.recordBytes, r.recordedEvents = buf.Len(), len(record.Events)
	var decoded *trace.Record
	if r.decodeS, err = timed("trace.Decode", func() (err error) { decoded, err = trace.DecodeJSONL(&buf); return }); err != nil {
		return r, err
	}
	codecOK := decoded.MakespanNs == record.MakespanNs && len(decoded.Events) == len(record.Events)
	var replayed *replay.Result
	if r.replayS, err = timed("replay.Exact", func() (err error) { replayed, err = replay.Exact(decoded); return }); err != nil {
		return r, err
	}
	r.replayOK = codecOK && replayed.MakespanNs == record.MakespanNs
	note("makespan", float64(record.MakespanNs))
	r.digest = h.Sum64()
	r.wallS = time.Since(repStart).Seconds()
	return r, nil
}

// shareWithin is the share of xs at or under limit.
func shareWithin(xs []float64, limit float64) float64 {
	within := 0
	for _, x := range xs {
		if x <= limit {
			within++
		}
	}
	return float64(within) / float64(len(xs))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func simRepCount(cfg runCfg, seconds float64) int {
	if cfg.smoke {
		return 1 // the traced pass still compares two repetitions' digests
	}
	if n := int(math.Round(seconds * simRepsPerSec)); n > 3 {
		return n
	}
	return 3
}

// simSummary reduces repetitions; a repetition fails when its simulated
// statistics differ from the first repetition's or its replay does not
// reproduce the recorded makespan.
type simSummary struct {
	attempted, failed int
	itersPerS         []float64
	repMs             []float64 // host time of a whole repetition
	figS, serveS      []float64
	first             simRep
}

func (e *simEnv) summarize(reps []simRep) simSummary {
	s := simSummary{first: reps[0]}
	for _, r := range reps {
		s.attempted++
		if r.digest != reps[0].digest || !r.replayOK {
			s.failed++
		}
		// Iterations counted where the benchmark knows the trip counts (the
		// Fig. 6/7 sweeps, the virtual serve, the burst and its replay) over
		// the host time of exactly those calls.
		iters := float64(e.figIters + e.serveIters + 2*e.burstIters)
		s.itersPerS = append(s.itersPerS, iters/(r.fig6S+r.serveS+r.recordS+r.replayS))
		s.repMs = append(s.repMs, r.wallS*1e3)
		s.figS = append(s.figS, r.fig6S+r.figOtherS)
		s.serveS = append(s.serveS, r.serveS+r.recordS+r.encodeS+r.decodeS+r.replayS)
	}
	return s
}

func runSimFigures(cfg runCfg) (outcome, error) {
	e := &simEnv{}
	if cfg.tr != nil {
		return e.runTraced(cfg)
	}
	setups, err := timeSetups(cfg, func() error { return e.setup(cfg) }, nil)
	if err != nil {
		return outcome{}, err
	}
	var reps []simRep
	before := allocBytes()
	for i := 0; i < simRepCount(cfg, cfg.seconds); i++ {
		r, err := e.rep(nil, -1, false)
		if err != nil {
			return outcome{}, err
		}
		reps = append(reps, r)
	}
	allocated := allocBytes() - before
	s := e.summarize(reps)
	// An operation is one repetition and every number is host time; the
	// simulated results are checked, not timed, and the traced pass reports
	// them (sim.virtual_*, sim.aid_gmean_gain_pct).
	return outcome{attempted: s.attempted, failed: s.failed, metrics: metricSet{
		"setup_s":         medianOf(setups, "s"),
		"iters_per_s":     medianOf(s.itersPerS, "1/s"),
		"p50_ms":          metric{Value: percentile(s.repMs, 50), Unit: "ms", N: len(s.repMs)},
		"p90_ms":          metric{Value: percentile(s.repMs, 90), Unit: "ms", N: len(s.repMs)},
		"slo_ok_frac":     scalar(shareWithin(s.repMs, simRepLimitMs), "frac"),
		"alloc_kb_per_op": scalar(float64(allocated)/1024/float64(s.attempted), "kB"),
	}, notes: []string{
		fmt.Sprintf("Table 2 %q gmean gain on Platform A: %.2f %%", gainRow, s.first.gainPct),
		fmt.Sprintf("virtual serve: simulated p50 %.4f ms, p90 %.4f ms over %d requests",
			percentile(s.first.latMs, 50), percentile(s.first.latMs, 90), len(s.first.latMs)),
		fmt.Sprintf("host s per repetition: figures %.3f, virtual serve and record/replay %.3f", s.figS, s.serveS),
	}}, nil
}

func (e *simEnv) runTraced(cfg runCfg) (outcome, error) {
	if err := e.setup(cfg); err != nil {
		return outcome{}, err
	}
	refReps := 3
	if cfg.smoke {
		refReps = 1
	}
	var reps []simRep
	for i := 0; i < refReps; i++ {
		r, err := e.rep(nil, -1, false)
		if err != nil {
			return outcome{}, err
		}
		reps = append(reps, r)
	}
	root := cfg.tr.begin("workload", -1, 0)
	for i := 0; i < simRepCount(cfg, cfg.seconds/3); i++ {
		sp := cfg.tr.begin("rep", root, int64(i))
		r, err := e.rep(cfg.tr, sp, true)
		cfg.tr.end(sp)
		if err != nil {
			return outcome{}, err
		}
		reps = append(reps, r)
	}
	cfg.tr.end(root)
	s := e.summarize(reps) // the untraced references must agree with the traced repetitions too
	traced := e.summarize(reps[refReps:])
	last := reps[len(reps)-1]
	pick := func(f func(simRep) float64) float64 {
		xs := make([]float64, 0, len(reps)-refReps)
		for _, r := range reps[refReps:] {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	m := metricSet{
		"sim.figures_s":            medianOf(traced.figS, "s"),
		"sim.virtual_serve_s":      medianOf(traced.serveS, "s"),
		"sim.aid_gmean_gain_pct":   scalar(last.gainPct, "%"),
		"sim.virtual_p50_ms":       metric{Value: percentile(last.latMs, 50), Unit: "ms", N: len(last.latMs)},
		"sim.virtual_p90_ms":       metric{Value: percentile(last.latMs, 90), Unit: "ms", N: len(last.latMs)},
		"sim.virtual_slo_ok_frac":  scalar(shareWithin(last.latMs, serveSLOms), "frac"),
		"sim.sched_share":          scalar(last.schedShare, "frac"),
		"trace.encode_mb_s":        scalar(float64(last.recordBytes)/1e6/pick(func(r simRep) float64 { return r.encodeS }), "MB/s"),
		"trace.decode_mb_s":        scalar(float64(last.recordBytes)/1e6/pick(func(r simRep) float64 { return r.decodeS }), "MB/s"),
		"trace.bytes_per_event":    scalar(float64(last.recordBytes)/float64(last.recordedEvents), "B"),
		"replay.exact_ms":          scalar(pick(func(r simRep) float64 { return r.replayS })*1e3, "ms"),
		"bench.trace_overhead_pct": scalar(overheadPct(median(s.itersPerS[:refReps]), median(traced.itersPerS)), "%"),
	}
	if err := runProbes(cfg, m); err != nil {
		return outcome{}, err
	}
	return outcome{attempted: s.attempted, failed: s.failed, metrics: m}, nil
}
