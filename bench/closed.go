package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rt"
	"repro/internal/xrand"
)

// schedSpec is one schedule of a closed workload's rotation with the trip
// count it runs at.
type schedSpec struct {
	tag  string
	text string
	n    int64
}

// closedSpec describes a closed-loop workload: one tenant at a time on the
// fleet, the next loop submitted only when the previous barrier released.
type closedSpec struct {
	name   string
	steps  int // body weight, see fleet.go
	scheds []schedSpec
	// warmN is the trip count of the set-up's warm-up loop, some 85 ms under
	// dynamic,16. A fresh fleet's two worker threads often wake on the same
	// CPU and stay there until the kernel's next balancing pass, about 5 ms
	// later; the warm-up gives the threads time to settle before anything is
	// timed, and is long enough that whether a set-up caught that pass (half
	// do) moves its time by 6 %, not by half. The rotation's own schedules
	// only get a 64-iteration loop each: an AID scheduler's luck with its
	// first speedup-factor estimate can change a loop's time several times
	// over, and set-up time should be the set-up.
	warmN int64
	// rotationsPerSec converts the requested run length into a fixed amount
	// of work (at the defining commit a rotation takes 1/rotationsPerSec).
	rotationsPerSec float64
	// limitMs is the loop latency limit behind slo_ok_frac.
	limitMs float64
}

// fineChunk: ~20 ns bodies at chunk 1, so the per-chunk runtime path (pool
// claim, Scheduler.Next, the registry's chunk loop) is most of the time.
// Trip counts are sized so each schedule takes a quarter to a half of a
// rotation.
var fineChunk = closedSpec{
	name:  "fine_chunk",
	steps: fineSteps,
	scheds: []schedSpec{
		{"dyn1", "dynamic,1", 1 << 20},
		{"aidh80", "aid-hybrid,80,1", 1 << 22},
		{"aidd1-5", "aid-dynamic,1,5", 1 << 23},
	},
	warmN:           1 << 22,
	rotationsPerSec: 2.0,
	limitMs:         400,
}

// coarseChunk: ~4 µs bodies, so per-chunk overhead is under 1 % of a chunk
// and only the quality of the iteration distribution can move the result.
var coarseChunk = closedSpec{
	name:  "coarse_chunk",
	steps: coarseSteps,
	scheds: []schedSpec{
		{"static", "static", 1 << 16},
		{"dyn32", "dynamic,32", 1 << 16},
		{"aids8", "aid-static,8", 1 << 16},
		{"aidh80-8", "aid-hybrid,80,8", 1 << 16},
		{"aidd8-40", "aid-dynamic,8,40", 1 << 16},
	},
	warmN:           1 << 15,
	rotationsPerSec: 1.05,
	limitMs:         500,
}

// closedLoop is one executed loop of a rotation.
type closedLoop struct {
	sched int
	n     int64
	ns    int64 // Submit to Wait returning
	ok    bool
	stats rt.LoopStats
}

// closedEnv is a set-up closed workload.
type closedEnv struct {
	reg    *rt.Registry
	scheds []rt.Schedule
	cells  []cell
	body   func(tid int, lo, hi int64)
}

func (w closedSpec) scaled(cfg runCfg) closedSpec {
	if cfg.smoke {
		s := w
		s.scheds = append([]schedSpec(nil), w.scheds...)
		for i := range s.scheds {
			s.scheds[i].n /= 64
		}
		s.warmN /= 64
		return s
	}
	return w
}

// setup loads the platform, builds the fleet, and runs one short loop per
// schedule so the timed section starts with the workers and every scheduler's
// code warm.
func (w closedSpec) setup(cfg runCfg, metrics bool) (*closedEnv, error) {
	pl, err := loadPlatform(cfg.dir)
	if err != nil {
		return nil, err
	}
	reg, err := newFleet(pl, metrics)
	if err != nil {
		return nil, err
	}
	env := &closedEnv{reg: reg, cells: make([]cell, reg.NThreads())}
	env.body = newBody(env.cells, w.steps)
	for _, s := range w.scheds {
		env.scheds = append(env.scheds, mustSchedule(s.text))
	}
	env.scheds = append(env.scheds, mustSchedule("dynamic,16"))
	warm := len(env.scheds) - 1
	for i := range env.scheds {
		n := int64(64)
		if i == warm {
			n = w.warmN
		}
		if lp := w.runLoop(env, i, n, nil, -1); !lp.ok {
			reg.Close()
			return nil, fmt.Errorf("%s: warm-up loop %d failed its coverage check", w.name, i)
		}
	}
	return env, nil
}

// runLoop submits one loop, waits for it and checks exactly-once coverage.
func (w closedSpec) runLoop(env *closedEnv, sched int, n int64, tr *tracer, parent int) closedLoop {
	resetCells(env.cells)
	lp := closedLoop{sched: sched, n: n}
	start := time.Now()
	sp := tr.begin("rt.Submit", parent, int64(sched))
	l, err := env.reg.Submit(rt.LoopRequest{N: n, Schedule: env.scheds[sched], Body: env.body})
	tr.end(sp)
	if err != nil {
		return lp
	}
	sp = tr.begin("rt.Wait", parent, int64(sched))
	lp.stats = l.Wait()
	tr.end(sp)
	lp.ns = int64(time.Since(start))
	lp.ok = coveredOnce(env.cells, n)
	return lp
}

// rotations runs count rotations: every schedule once per rotation, in an
// order and at trip counts (within 2 % of nominal) drawn from rng.
func (w closedSpec) rotations(env *closedEnv, rng *xrand.Rand, count int, tr *tracer, parent int) [][]closedLoop {
	out := make([][]closedLoop, count)
	order := make([]int, len(w.scheds))
	for r := range out {
		for i := range order {
			order[i] = i
		}
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		rep := tr.begin("rep", parent, int64(r))
		for _, si := range order {
			n := int64(float64(w.scheds[si].n) * (0.98 + 0.04*rng.Float64()))
			out[r] = append(out[r], w.runLoop(env, si, n, tr, rep))
		}
		tr.end(rep)
	}
	return out
}

func (w closedSpec) rotationCount(seconds float64, smoke bool) int {
	if smoke {
		return 2
	}
	if n := int(math.Round(seconds * w.rotationsPerSec)); n > 3 {
		return n
	}
	return 3
}

// closedSummary reduces rotations to the end-to-end numbers.
type closedSummary struct {
	attempted, failed int
	itersPerS         []float64 // per rotation
	latMs             []float64 // per loop
	okInLimit         int
	perSched          [][]float64 // iterations per second, per schedule
}

func (w closedSpec) summarize(rots [][]closedLoop) closedSummary {
	s := closedSummary{perSched: make([][]float64, len(w.scheds))}
	for _, rot := range rots {
		var iters, ns int64
		for _, lp := range rot {
			s.attempted++
			if !lp.ok {
				s.failed++
				continue
			}
			iters += lp.n
			ns += lp.ns
			ms := float64(lp.ns) / 1e6
			s.latMs = append(s.latMs, ms)
			if ms <= w.limitMs {
				s.okInLimit++
			}
			s.perSched[lp.sched] = append(s.perSched[lp.sched], float64(lp.n)/(float64(lp.ns)/1e9))
		}
		if ns > 0 {
			s.itersPerS = append(s.itersPerS, float64(iters)/(float64(ns)/1e9))
		}
	}
	return s
}

func (w closedSpec) run(cfg runCfg) (outcome, error) {
	w = w.scaled(cfg)
	if cfg.tr != nil {
		return w.runTraced(cfg)
	}
	var env *closedEnv
	setups, err := timeSetups(cfg, func() (err error) {
		env, err = w.setup(cfg, false)
		return err
	}, func() { env.reg.Close() })
	if err != nil {
		return outcome{}, err
	}
	defer env.reg.Close()

	rng := xrand.New(cfg.seed)
	before := allocBytes()
	rots := w.rotations(env, rng, w.rotationCount(cfg.seconds, cfg.smoke), nil, -1)
	allocated := allocBytes() - before
	s := w.summarize(rots)

	out := outcome{attempted: s.attempted, failed: s.failed, metrics: metricSet{
		"setup_s":         medianOf(setups, "s"),
		"iters_per_s":     medianOf(s.itersPerS, "1/s"),
		"p50_ms":          metric{Value: percentile(s.latMs, 50), Unit: "ms", N: len(s.latMs)},
		"p90_ms":          metric{Value: percentile(s.latMs, 90), Unit: "ms", N: len(s.latMs)},
		"slo_ok_frac":     scalar(float64(s.okInLimit)/float64(s.attempted), "frac"),
		"alloc_kb_per_op": scalar(float64(allocated)/1024/float64(s.attempted), "kB"),
	}}
	return out, nil
}

// runTraced is the separate traced pass: a short untraced reference slice,
// then the same work with RegistryConfig.Metrics on and spans around every
// Submit and Wait, then the layer probes.
func (w closedSpec) runTraced(cfg runCfg) (outcome, error) {
	count := w.rotationCount(cfg.seconds/4, cfg.smoke)
	rng := xrand.New(cfg.seed)

	env, err := w.setup(cfg, false)
	if err != nil {
		return outcome{}, err
	}
	ref := w.summarize(w.rotations(env, rng, count, nil, -1))
	env.reg.Close()

	if env, err = w.setup(cfg, true); err != nil {
		return outcome{}, err
	}
	root := cfg.tr.begin("workload", -1, 0)
	rots := w.rotations(env, rng, count, cfg.tr, root)
	cfg.tr.end(root)
	env.reg.Close()
	s := w.summarize(rots)

	m := metricSet{}
	tags := make(map[string]float64)
	for i, sc := range w.scheds {
		tags[sc.tag] = median(s.perSched[i])
		m["rt.iters_per_s."+sc.tag] = medianOf(s.perSched[i], "1/s")
	}
	if st, ok := tags["static"]; ok && st > 0 {
		m["rt.aid_vs_static"] = scalar(tags["aids8"]/st, "ratio")
	}
	var sfs []float64
	var busy, sched, idle, chunks, steals int64
	for _, rot := range rots {
		for _, lp := range rot {
			if sf := lp.stats.SFEstimate; len(sf) > 1 && sf[len(sf)-1] > 0 {
				sfs = append(sfs, sf[0]/sf[len(sf)-1])
			}
			if mt := lp.stats.Metrics; mt != nil {
				busy += mt.BusyNs
				sched += mt.SchedNs
				idle += mt.IdleNs
				chunks += mt.Chunks
				steals += mt.StealsSamePkg + mt.StealsCross
			}
		}
	}
	if len(sfs) > 0 {
		m["rt.sf_est"] = medianOf(sfs, "ratio")
	}
	if total := busy + sched + idle; total > 0 {
		m["rt.sched_share"] = scalar(float64(sched)/float64(total), "frac")
		m["rt.idle_share"] = scalar(float64(idle)/float64(total), "frac")
	}
	if chunks > 0 {
		m["rt.steal_frac"] = scalar(float64(steals)/float64(chunks), "frac")
	}
	m["bench.trace_overhead_pct"] = scalar(overheadPct(median(ref.itersPerS), median(s.itersPerS)), "%")

	if err := runProbes(cfg, m); err != nil {
		return outcome{}, err
	}
	return outcome{
		attempted: ref.attempted + s.attempted,
		failed:    ref.failed + s.failed,
		metrics:   m,
	}, nil
}

// overheadPct is how much slower, in percent, the traced rate is than the
// untraced reference (negative when tracing measured faster: noise).
func overheadPct(refRate, tracedRate float64) float64 {
	if tracedRate <= 0 {
		return 0
	}
	return (refRate/tracedRate - 1) * 100
}
