package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/amp"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/pool"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Layer probes: operations too short to span one by one are measured as
// rungs. One loop shape — ladderN iterations at chunk 1, two goroutines, the
// fine body's cells — is drained three ways: straight from the sharded pool,
// through core.Scheduler.Next with no body, and through the registry. Each
// rung's whole-drain time, times the two claimers, over its count is the
// rung's cost per operation, and the rungs must add up:
//
//	rt.chunk_ns ≈ pool.claim_ns.strict + core.self_ns.dyn1 + rt.self_ns + bench.body_ns.fine
//
// where rt.self_ns comes from a registry drain with an empty body (what the
// registry adds around Next: clock reads, bookkeeping, the small worker's
// throttle). rt.ladder_residual_ns is what the identity leaves unexplained.
// The probes do not depend on the workload and run in every traced pass.
const ladderN = 1 << 20

// ladderSchedules are the schedules the core rungs cover; the first is the
// one the registry rungs and the ladder identity use.
var ladderSchedules = []schedSpec{
	{tag: "dyn1", text: "dynamic,1"},
	{tag: "aidh80", text: "aid-hybrid,80,1"},
	{tag: "aidd1-5", text: "aid-dynamic,1,5"},
	{tag: "aids8", text: "aid-static,8"},
}

// claimer is one draining goroutine's private scratch, a cache line pair of
// its own so the two claimers share nothing the rung does not make them share.
type claimer struct {
	ops      int64
	accesses int64 // pool RMWs, for rungs that count them
	now      int64 // synthetic clock, for rungs that need one
	_        [104]byte
}

// drain2 runs claim on two goroutines (tid 0 and 1) until each reports done,
// and returns the wall time and the two claimers' totals.
func drain2(claim func(tid int, c *claimer) bool) (wall time.Duration, ops, accesses int64) {
	var wg sync.WaitGroup
	cs := make([]claimer, 2)
	start := time.Now()
	for tid := range cs {
		wg.Add(1)
		go func(tid int, c *claimer) {
			defer wg.Done()
			for claim(tid, c) {
				c.ops++
			}
		}(tid, &cs[tid])
	}
	wg.Wait()
	return time.Since(start), cs[0].ops + cs[1].ops, cs[0].accesses + cs[1].accesses
}

// perOp is the ladder's cost formula: two claimers busy for wall, over ops.
func perOp(wall time.Duration, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) * 2 / float64(ops)
}

// rungMedian repeats a rung five times and keeps the median cost.
func rungMedian(f func() float64) float64 {
	return median([]float64{f(), f(), f(), f(), f()})
}

func runProbes(cfg runCfg, m metricSet) error {
	n := int64(ladderN)
	if cfg.smoke {
		n = 1 << 12
	}
	pl, err := loadPlatform(cfg.dir)
	if err != nil {
		return err
	}
	types := []int{0, 1} // BS binding on 1B+1S: worker 0 big, worker 1 small
	info := core.LoopInfo{
		NI: n, NThreads: 2, NumTypes: 2,
		TypeOf:   func(tid int) int { return types[tid] },
		TypeDist: pl.TypeDist(),
	}

	// pool rung
	var foreign float64
	strict := rungMedian(func() float64 {
		ws := pool.NewSharded(n, []int{1, 1})
		wall, ops, _ := drain2(func(tid int, _ *claimer) bool {
			_, _, _, _, ok := ws.TryStealBatchFrom(tid, 1, 1)
			return ok
		})
		foreign = float64(ws.ForeignClaims()) / float64(ops)
		return perOp(wall, ops)
	})
	m["pool.claim_ns.strict"] = scalar(strict, "ns")
	m["pool.foreign_frac"] = scalar(foreign, "frac")
	m["pool.claim_ns.credit"] = scalar(rungMedian(func() float64 {
		ws := pool.NewSharded(n, []int{1, 1})
		var credits [2]struct {
			c pool.Credit
			_ [96]byte
		}
		wall, ops, _ := drain2(func(tid int, _ *claimer) bool {
			_, _, _, ok := ws.TryStealCredit(tid, 1, &credits[tid].c)
			return ok
		})
		return perOp(wall, ops)
	}), "ns")
	m["pool.claim_ns.contended"] = scalar(rungMedian(func() float64 {
		ws := pool.NewSharded(n, []int{1, 1})
		wall, ops, _ := drain2(func(int, *claimer) bool {
			_, _, _, _, ok := ws.TryStealBatchFrom(0, 1, 1)
			return ok
		})
		return perOp(wall, ops)
	}), "ns")

	// core rungs: Next with no body, on a synthetic clock so the rung times
	// the scheduler and not the host's clock source.
	for _, ls := range ladderSchedules {
		tag := ls.tag
		factory := mustSchedule(ls.text).Factory()
		var accesses, calls int64
		var buildErr error
		next := rungMedian(func() float64 {
			s, err := factory(info)
			if err != nil {
				buildErr = err
				return 0
			}
			wall, ops, acc := drain2(func(tid int, c *claimer) bool {
				c.now += 100
				a, ok := s.Next(tid, c.now)
				c.accesses += int64(a.PoolAccesses)
				return ok
			})
			accesses, calls = acc, ops
			return perOp(wall, ops)
		})
		if buildErr != nil {
			return fmt.Errorf("probe %s: %w", tag, buildErr)
		}
		perChunk := float64(accesses) / float64(calls)
		m["core.next_ns."+tag] = scalar(next, "ns")
		m["core.pool_accesses_per_chunk."+tag] = scalar(perChunk, "count")
		m["core.self_ns."+tag] = scalar(next-perChunk*strict, "ns")

		small := info
		small.NI = 8192 // a typical serve request
		var build []float64
		for i := 0; i < 200; i++ {
			start := time.Now()
			if _, err := factory(small); err != nil {
				return fmt.Errorf("probe %s: %w", tag, err)
			}
			build = append(build, float64(time.Since(start).Nanoseconds())/1e3)
		}
		m["core.new_us."+tag] = medianOf(build, "us")
	}

	// rt rungs
	var newReg []float64
	for i := 0; i < 10; i++ {
		start := time.Now()
		r, err := newFleet(pl, false)
		if err != nil {
			return err
		}
		r.Close()
		newReg = append(newReg, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["rt.new_registry_ms"] = medianOf(newReg, "ms")

	cells := make([]cell, 2)
	fine := newBody(cells, fineSteps)
	empty := func(tid int, lo, hi int64) { cells[tid].calls++ }
	dyn1 := mustSchedule(ladderSchedules[0].text)
	rung := func(reg *rt.Registry, body func(int, int64, int64)) (float64, error) {
		var failed error
		cost := rungMedian(func() float64 {
			resetCells(cells)
			start := time.Now()
			l, err := reg.Submit(rt.LoopRequest{N: n, Schedule: dyn1, Body: body})
			if err != nil {
				failed = err
				return 0
			}
			l.Wait()
			return perOp(time.Since(start), chunkCalls(cells))
		})
		return cost, failed
	}
	reg, err := newFleet(pl, false)
	if err != nil {
		return err
	}
	chunk, err := rung(reg, fine)
	if err == nil && !coveredOnce(cells, n) {
		err = fmt.Errorf("probe: registry rung failed its coverage check")
	}
	var emptyChunk float64
	if err == nil {
		emptyChunk, err = rung(reg, empty)
	}
	reg.Close()
	if err != nil {
		return err
	}
	regOn, err := newFleet(pl, true)
	if err != nil {
		return err
	}
	chunkOn, err := rung(regOn, fine)
	var snaps []float64
	for i := 0; i < 100; i++ {
		start := time.Now()
		regOn.MetricsSnapshot()
		snaps = append(snaps, float64(time.Since(start).Nanoseconds())/1e3)
	}
	regOn.Close()
	if err != nil {
		return err
	}
	m["obs.snapshot_us"] = medianOf(snaps, "us")
	m["obs.metrics_overhead_pct"] = scalar((chunkOn/chunk-1)*100, "%")

	for name, steps := range map[string]int{"fine": fineSteps, "serve": serveSteps, "coarse": coarseSteps} {
		alone := make([]cell, 1)
		b := newBody(alone, steps)
		iters := int64(40_000_000 / steps)
		if cfg.smoke {
			iters /= 100
		}
		m["bench.body_ns."+name] = scalar(rungMedian(func() float64 {
			start := time.Now()
			b(0, 0, iters)
			return float64(time.Since(start).Nanoseconds()) / float64(iters)
		}), "ns")
	}

	nextDyn1 := m["core.next_ns.dyn1"].Value
	rtSelf := emptyChunk - nextDyn1
	m["rt.chunk_ns"] = scalar(chunk, "ns")
	m["rt.self_ns"] = scalar(rtSelf, "ns")
	m["rt.ladder_residual_ns"] = scalar(chunk-(strict+m["core.self_ns.dyn1"].Value+rtSelf+m["bench.body_ns.fine"].Value), "ns")

	// fair, arrival, stats, amp
	const reps = 100_000
	policy := fair.NewWeightedRoundRobin(0)
	cands := make([]fair.Candidate, 8)
	for i := range cands {
		cands[i] = fair.Candidate{ID: uint64(i), Weight: 1 + i%3}
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		policy.Pick(i&1, cands)
	}
	m["fair.pick_ns"] = scalar(float64(time.Since(start).Nanoseconds())/reps, "ns")

	proc, err := arrival.New("poisson", 1e6, cfg.seed)
	if err != nil {
		return err
	}
	start = time.Now()
	due := arrival.Times(proc, 0, int64(reps)*1000)
	m["arrival.gap_ns"] = scalar(float64(time.Since(start).Nanoseconds())/float64(len(due)), "ns")

	hist := stats.NewHistogram()
	start = time.Now()
	for i := 0; i < reps; i++ {
		hist.Add(float64(i) * 37)
	}
	m["stats.hist_add_ns"] = scalar(float64(time.Since(start).Nanoseconds())/reps, "ns")

	var loads []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		if _, err := amp.LoadFile(filepath.Join(cfg.dir, platformFile)); err != nil {
			return err
		}
		loads = append(loads, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m["amp.load_us"] = medianOf(loads, "us")

	// sim: host time per simulated chunk in each of the two event loops.
	simN := n / 16
	simCfg := sim.Config{Platform: pl, NThreads: 2, Binding: amp.BindBS, Factory: dyn1.Factory()}
	spec := sim.LoopSpec{Name: "probe", NI: simN, Cost: sim.UniformCost{PerIter: 100}}
	var simErr error
	m["sim.host_ns_per_chunk.single"] = scalar(rungMedian(func() float64 {
		start := time.Now()
		if _, err := sim.RunLoop(simCfg, spec, 0); err != nil {
			simErr = err
		}
		return float64(time.Since(start).Nanoseconds()) / float64(simN)
	}), "ns")
	m["sim.host_ns_per_chunk.multi"] = scalar(rungMedian(func() float64 {
		specs := []sim.LoopSpec{spec, spec, spec, spec}
		start := time.Now()
		if _, err := sim.RunLoops(simCfg, specs, fair.NewWeightedRoundRobin(0), 0); err != nil {
			simErr = err
		}
		return float64(time.Since(start).Nanoseconds()) / float64(4*simN)
	}), "ns")
	return simErr
}
