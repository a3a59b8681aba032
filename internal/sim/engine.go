package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/trace"
)

// workspace is what the engine keeps between calls made under one Config:
// the scheduler-facing loop description, the schedulers of the previous call,
// and every table the event loop reads and writes while it runs (see "What a
// call allocates" in the package comment). A workspace serves one call at a
// time, and its results never point into it.
type workspace struct {
	cfg  Config
	info core.LoopInfo // all but the trip count; TypeDist is the platform's shared, read-only matrix

	// scheds[li] is the scheduler loop li ran under in the previous call. The
	// next call re-arms it through core.Resettable for its own loop li instead
	// of asking the factory for another; forgetSchedulers says the next call's
	// loops need schedulers of their own (RunProgram under FactoryNamed).
	scheds []core.Scheduler

	// fleet holds the runnable loops, the retirements and the policy's picks;
	// loop li lives in slot li, under ID li.
	fleet *fair.Fleet

	// ledgers[li] accounts loop li's grants.
	ledgers []obs.Ledger

	coreOf, typeOf, activeInCluster []int
	arrive                          []int64
	order                           []int
	speed                           []float64
	lastHi                          []int64
	engaged, engagedTotal           []int
	clock                           []int64
	cur, burst, owed                []int
	migrations                      []Migration
}

// newWorkspace checks cfg and returns an empty workspace for calls under it;
// the tables are sized by the first call.
func newWorkspace(cfg Config) (*workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl, nt, binding := cfg.Platform, cfg.NThreads, cfg.Binding
	ws := &workspace{
		cfg: cfg,
		info: core.LoopInfo{
			NThreads: nt,
			NumTypes: len(pl.Clusters),
			TypeOf:   func(tid int) int { return pl.ClusterOf(pl.CoreOf(tid, nt, binding)) },
			TypeDist: pl.TypeDist(),
		},
	}
	ws.fleet = fair.NewFleet(nil, nt)
	return ws, nil
}

// forgetSchedulers makes the next call build its schedulers with the
// configured factory: the loops it runs are not the previous call's, and the
// factory may configure their schedulers differently.
func (ws *workspace) forgetSchedulers() { clear(ws.scheds) }

// sized returns s with length n and every element zero, in s's own storage
// when that is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// scheduler returns the scheduler for this call's loop li: the previous
// call's, re-armed, when that one can be; otherwise a new one from the
// configured factory (a replay script, a test probe).
func (ws *workspace) scheduler(li int, name string, info core.LoopInfo) (core.Scheduler, error) {
	if rs, ok := ws.scheds[li].(core.Resettable); ok {
		return rs, rs.Reset(info)
	}
	s, err := ws.cfg.buildScheduler(name, info)
	ws.scheds[li] = s
	return s, err
}

// run is the simulator's one event loop (see the package comment). A nil
// policy selects team mode: specs is RunLoop's single loop, forked at
// startNs and joined at its barrier. A non-nil policy selects fleet mode:
// the loops share a persistent fleet under that policy, as RunLoops
// describes. results[i] is overwritten with the outcome of specs[i], in the
// manner of append: a slice field it already carries is reused when it is
// large enough, so zero results come back with new slices and a caller that
// passes the previous call's results gives up what those held. results has
// one entry per spec.
func (ws *workspace) run(results []LoopResult, specs []LoopSpec, policy fair.Policy, startNs int64) error {
	cfg := ws.cfg
	if len(specs) == 0 {
		return fmt.Errorf("sim: no loops to run")
	}
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	team := policy == nil
	if cfg.Recorder != nil {
		name := ""
		if !team {
			name = policy.Name()
		}
		if err := beginRecording(cfg, name, startNs); err != nil {
			return err
		}
	}

	pl := cfg.Platform
	ov := pl.Overhead
	nt, nl, ntypes := cfg.NThreads, len(specs), len(pl.Clusters)
	dist := ws.info.TypeDist

	// Worker placement. Cluster occupancy is the whole fleet for every loop:
	// a loop's chunks share the cluster's LLC with all resident threads,
	// whichever loop those happen to be serving.
	ws.coreOf, ws.typeOf = sized(ws.coreOf, nt), sized(ws.typeOf, nt)
	ws.activeInCluster = sized(ws.activeInCluster, ntypes)
	coreOf, typeOf, activeInCluster := ws.coreOf, ws.typeOf, ws.activeInCluster
	for tid := range coreOf {
		coreOf[tid] = pl.CoreOf(tid, nt, cfg.Binding)
		typeOf[tid] = pl.ClusterOf(coreOf[tid])
		activeInCluster[typeOf[tid]]++
	}

	// Per-loop state. The tables the event loop reads on every event are
	// flat: [li] per loop, [li*nt+tid] per loop and worker, [li*ntypes+t]
	// per loop and core type.
	if len(ws.scheds) != nl {
		ws.scheds = make([]core.Scheduler, nl)
	}
	ws.arrive = sized(ws.arrive, nl)
	ws.speed, ws.lastHi = sized(ws.speed, nl*nt), sized(ws.lastHi, nl*nt)
	scheds, arrive, speed, lastHi := ws.scheds, ws.arrive, ws.speed, ws.lastHi
	fleet := ws.fleet
	fleet.Reset(policy)
	// engaged[li*ntypes+t] counts the workers currently scheduling loop li
	// from core type t (engagedTotal[li] across all types): the population
	// of loop li's pool lines, which is what a pool access on that loop
	// contends with. setCur keeps the counts in step with cur transitions.
	ws.engaged, ws.engagedTotal = sized(ws.engaged, nl*ntypes), sized(ws.engagedTotal, nl)
	engaged, engagedTotal := ws.engaged, ws.engagedTotal
	// Loop li's ledger streams its intervals and events to the Config's Trace
	// and Recorder in event-loop order. Not sized, which would clear them:
	// Arm re-arms each in place.
	ws.ledgers = slices.Grow(ws.ledgers[:0], nl)[:nl]
	ledgers := ws.ledgers
	var tl obs.Timeline
	var evs obs.Events
	if cfg.Trace != nil {
		tl = cfg.Trace
	}
	if cfg.Recorder != nil {
		evs = cfg.Recorder
	}
	setSpeeds := func() {
		for li := range specs {
			for tid := 0; tid < nt; tid++ {
				speed[li*nt+tid] = pl.Speed(coreOf[tid], specs[li].Profile, activeInCluster[typeOf[tid]])
			}
		}
	}
	setSpeeds()
	info := ws.info
	for li, spec := range specs {
		info.NI = spec.NI
		s, err := ws.scheduler(li, spec.Name, info)
		if err != nil {
			return fmt.Errorf("sim: building scheduler for loop %q: %w", spec.Name, err)
		}
		arrive[li] = startNs
		var stamp int64 // what a record carries: zero is "admitted at start"
		if !team && spec.Arrive > startNs {
			arrive[li], stamp = spec.Arrive, spec.Arrive
		}
		res := &results[li]
		*res = LoopResult{
			Outcome:        obs.Outcome{Start: arrive[li], Iters: res.Iters[:0]},
			Finish:         sized(res.Finish, nt),
			SFTrajectory:   res.SFTrajectory[:0],
			ClusterEnergyJ: res.ClusterEnergyJ[:0],
		}
		if cfg.Recorder != nil {
			addLoopRecord(cfg.Recorder, spec, s, stamp)
		}
		if po, observable := s.(core.PhaseObservable); observable {
			// A scheduler has one observer slot; decision capture and the
			// SF trajectory share it.
			li, rec := li, cfg.Recorder
			po.SetPhaseObserver(func(ev core.PhaseEvent) {
				if rec != nil {
					rec.Phase(trace.PhaseEvent{TimeNs: ev.TimeNs, Tid: ev.Tid, Loop: li,
						Epoch: ev.Epoch, Kind: ev.Kind, SF: ev.SF})
				}
				if ev.SF != nil {
					res.SFTrajectory = append(res.SFTrajectory, SFPoint{TimeNs: ev.TimeNs, SF: ev.SF})
				}
			})
		}
		if est, isEst := s.(core.SFEstimator); isEst {
			// Offline-SF variants publish at construction with no event;
			// the trajectory starts when the loop arrives.
			if sf, ready := est.SFEstimate(); ready {
				res.SFTrajectory = append(res.SFTrajectory, SFPoint{TimeNs: arrive[li], SF: sf})
			}
		}
		for i := li * nt; i < (li+1)*nt; i++ {
			lastHi[i] = -1
		}
		// Counter cells are keyed by each worker's home cluster at the start
		// (a later migration moves the worker, not its occupancy bucket — same
		// convention as the registry's binding-derived home types). Each loop
		// counts only its own grants.
		var m *obs.Metrics
		if cfg.Metrics {
			m = obs.New(nt, ntypes, func(tid int) int { return typeOf[tid] })
		}
		ledgers[li].Arm(typeOf, dist, m, tl, evs, li, team)
	}
	// now never goes back (the loop below always advances the earliest
	// clock), so the loops admitted by now are a prefix of order, the loop
	// indices by arrival stamp. Only the fleet's runnable loops — admitted,
	// barrier not released — are offered to a worker, so a pick costs what is
	// in flight, not what the run holds. The loops admitted at the start are
	// behind the cursor before any grant.
	ws.order = sized(ws.order, nl)
	order := ws.order
	admit := func(li int) { fleet.Admit(li, uint64(li), specs[li].Weight) }
	for li := range order {
		order[li] = li
	}
	if nl > 1 {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(arrive[a], arrive[b]) })
	}
	arrived := 0
	for ; arrived < nl && arrive[order[arrived]] <= startNs; arrived++ {
		admit(order[arrived])
	}

	// Worker state: virtual clock, the loop currently served (-1 between
	// loops), the burst remaining in the policy's grant, and the number of
	// loops that have not retired the worker. A worker is live while it owes
	// a retirement; after its last one its clock is parked at the end of
	// time, so the earliest clock is always a live worker's.
	ws.clock, ws.cur = sized(ws.clock, nt), sized(ws.cur, nt)
	ws.burst, ws.owed = sized(ws.burst, nt), sized(ws.owed, nt)
	clock, cur, burst, owed := ws.clock, ws.cur, ws.burst, ws.owed
	setCur := func(tid, li int) {
		prev := cur[tid]
		if prev == li {
			return
		}
		if prev >= 0 {
			engaged[prev*ntypes+typeOf[tid]]--
			engagedTotal[prev]--
		}
		if li >= 0 {
			engaged[li*ntypes+typeOf[tid]]++
			engagedTotal[li]++
		}
		cur[tid] = li
	}
	var forkNs, joinNs int64
	if team {
		forkNs = int64(ov.ForkJoinNs / 2)
		joinNs = int64(ov.ForkJoinNs) - forkNs
	}
	for tid := range clock {
		clock[tid] = startNs
		cur[tid] = -1
		owed[tid] = nl
		if !team {
			continue
		}
		// Fork: every thread pays the fork half of the fork/join cost, a
		// runtime call that grants nothing, and is on the loop's pool lines
		// from then on, under a grant that never runs out.
		clock[tid] += forkNs
		setCur(tid, 0)
		burst[tid] = math.MaxInt
		results[0].SchedNs += forkNs
		ledgers[0].Lane(tid).Call(core.Assign{}, startNs, clock[tid])
	}
	ws.migrations = append(ws.migrations[:0], cfg.Migrations...) // consumed as they are delivered
	migrations := ws.migrations

	for live := nt; live > 0; {
		// Earliest-clock-first among live workers; ties resolve to the
		// lowest thread ID, keeping the simulation deterministic.
		tid := 0
		for i := 1; i < nt; i++ {
			if clock[i] < clock[tid] {
				tid = i
			}
		}
		now := clock[tid]
		// A worker only sees loops that have arrived by its own clock. An
		// arrival ends every grant made before it (the registry's admission
		// generation: an unbounded single-tenant burst must yield the moment
		// a second tenant shows up).
		for ; arrived < nl && arrive[order[arrived]] <= now; arrived++ {
			admit(order[arrived])
			clear(burst)
		}

		// Deliver any due migration for this thread before it re-enters the
		// runtime (the "signal observed at next runtime call" semantics).
		for i := 0; i < len(migrations); i++ {
			mg := migrations[i]
			if mg.Tid != tid || mg.AtNs > now {
				continue
			}
			if mg.ToCPU < 0 || mg.ToCPU >= pl.NumCores() {
				return fmt.Errorf("sim: migration to invalid CPU %d", mg.ToCPU)
			}
			migrations = slices.Delete(migrations, i, i+1)
			i--
			from, to := typeOf[tid], pl.ClusterOf(mg.ToCPU)
			coreOf[tid] = mg.ToCPU
			if from == to {
				continue
			}
			// The worker takes its slot on the served loop's pool lines
			// with it; cluster occupancies changed, so every speed does.
			typeOf[tid] = to
			activeInCluster[from]--
			activeInCluster[to]++
			if li := cur[tid]; li >= 0 {
				engaged[li*ntypes+from]--
				engaged[li*ntypes+to]++
			}
			setSpeeds()
			for li, s := range scheds {
				if m, isMig := s.(core.Migratable); isMig && !fleet.Retired(li, tid) {
					m.Migrate(tid, to, now)
				}
			}
		}

		// Re-enter the policy when the worker is between loops or its grant
		// is used up.
		li := cur[tid]
		if li < 0 || burst[tid] <= 0 {
			var ok bool
			if li, burst[tid], ok = fleet.Grant(tid); !ok {
				// Nothing runnable yet (so the worker is between loops):
				// idle forward to the next arrival. One must exist —
				// owed[tid] > 0 and every arrived loop that still owes this
				// worker a retirement is runnable, so would have been a
				// candidate — and no loop retires a worker before it arrives.
				next := arrive[order[arrived]]
				if cfg.Trace != nil {
					cfg.Trace.Add(tid, now, next, trace.Sync)
				}
				clock[tid] = next
				continue
			}
			setCur(tid, li)
		}
		burst[tid]--

		asg, ok := scheds[li].Next(tid, now)
		res := &results[li]
		// Charge the runtime-call overhead whether or not work was handed
		// out (the final empty call still costs a pool access). Contention
		// is charged by the occupancy of the accessed shard's line among
		// the workers engaged on THIS loop.
		origin := int(asg.Origin)
		contend := contenders(engaged[li*ntypes:(li+1)*ntypes], engagedTotal[li], typeOf[tid], origin)
		ovhNs := float64(asg.PoolAccesses)*(ov.PoolAccessNs+ov.ContentionNs*float64(contend)) +
			float64(asg.Timestamps)*ov.TimestampNs
		var units, execNs float64
		if ok {
			// Locality penalty: a chunk that does not extend the thread's
			// previous one in this loop lands cold in the cache (§2), at a
			// price tiered by how far the chunk's home pool line sits from
			// the consuming core (home / same-package / cross-package).
			if asg.Lo != lastHi[li*nt+tid] {
				ovhNs += localityNs(ov, dist, typeOf[tid], origin)
			}
			lastHi[li*nt+tid] = asg.Hi
			units = specs[li].Cost.RangeUnits(asg.Lo, asg.Hi)
			execNs = units / speed[li*nt+tid]
		}
		schedEnd := now + int64(ovhNs)
		clock[tid] = schedEnd + int64(execNs)
		res.SchedNs += int64(ovhNs)
		ln := ledgers[li].Lane(tid)
		ln.Call(asg, now, schedEnd)
		if ok {
			ln.Chunk(asg, now, schedEnd, clock[tid], units)
			continue
		}

		ln.Retire(asg, now, schedEnd)
		res.Finish[tid] = schedEnd
		// The worker is done scheduling this loop; drop it from the engaged
		// counts now (not at the next policy grant) so a fully retired
		// worker cannot leak an engaged slot forever.
		setCur(tid, -1)
		if owed[tid]--; owed[tid] == 0 {
			clock[tid] = math.MaxInt64
			live--
		}
		if !fleet.Retire(li, tid) {
			continue
		}
		// This loop's barrier releases at the last retirement, plus the
		// join half of the fork/join cost in team mode, where the ledger
		// charges each worker's wait for it.
		ledgers[li].Release(joinNs, scheds[li], &res.Outcome)
		if team {
			// Only a team's waits and watts belong to one loop: each worker
			// idles from its own arrival at the barrier to the release, and
			// its core draws ActiveW until that arrival and IdleW after. A
			// fleet worker retired from one loop moves on to others.
			res.SchedNs += joinNs
			res.ClusterEnergyJ = sized(res.ClusterEnergyJ, ntypes)
			for w, finish := range res.Finish {
				ct := &pl.Clusters[typeOf[w]].Type
				j := (float64(finish-res.Start)*ct.ActiveW + float64(res.End-finish)*ct.IdleW) * 1e-9
				res.ClusterEnergyJ[typeOf[w]] += j
				res.EnergyJ += j
			}
		}
		if cfg.Recorder != nil && res.SFEstimate != nil {
			cfg.Recorder.SFSample(trace.SFSample{TimeNs: res.End, Loop: li, SF: slices.Clone(res.SFEstimate)})
		}
	}
	if cfg.Recorder != nil {
		if cfg.Trace != nil {
			cfg.Recorder.AttachTimeline(cfg.Trace)
		}
		var maxEnd int64
		for i := range results {
			maxEnd = max(maxEnd, results[i].End)
		}
		cfg.Recorder.EndRun(maxEnd - startNs)
	}
	return nil
}
