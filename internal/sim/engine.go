package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/trace"
)

// workspace is everything the event loop needs between its first and its
// last event: the scheduler-facing loop description, the schedulers of the
// call, and every table the event loop reads and writes while it runs (see
// "What a call allocates" in the package comment). A workspace serves one
// call at a time, and its results never point into it. It outlives its call:
// newWorkspace takes one from workspaces, and release hands it back there
// once it has forgotten the call's Config, for the next call under any Config
// to size its tables in the storage this one grew.
type workspace struct {
	cfg  Config
	info core.LoopInfo // all but the trip count; TypeDist is the platform's shared, read-only matrix

	// scheds[li] is the scheduler loop li ran under in the call's previous
	// run. The next run re-arms it through core.Resettable for its own loop li
	// instead of asking the factory for another; forgetSchedulers says the
	// next run's loops need schedulers of their own (RunProgram under
	// FactoryNamed). A call starts with none.
	scheds []core.Scheduler

	// fleet holds the runnable loops, the retirements and the policy's picks;
	// loop li lives in slot li, under ID li. It is built for fleetThreads
	// workers.
	fleet        *fair.Fleet
	fleetThreads int

	// ledgers[li] accounts loop li's grants.
	ledgers []obs.Ledger

	// lr is RunProgram's result of the execution it simulates last: every
	// execution overwrites the previous one's, slices included, and the
	// program reads only its scalars.
	lr [1]LoopResult

	coreOf, typeOf, activeInCluster []int
	arrive                          []int64
	order                           []int
	speed                           []float64
	lastHi                          []int64
	engaged, engagedTotal           []int
	clock                           []int64
	cur, served, owed               []int
	grant                           []fair.Grant
	migrations                      []Migration
}

// workspaces holds the workspaces of the calls that have returned. A
// workspace keeps its tables there and nothing of its last call's Config.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// newWorkspace checks cfg and returns a workspace for a call under it, with
// no scheduler: the one a previous call left in workspaces when there is one,
// its tables sized by that call, otherwise an empty one. The call hands it
// back with release.
func newWorkspace(cfg Config) (*workspace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ws := workspaces.Get().(*workspace)
	ws.begin(cfg)
	return ws, nil
}

// begin readies a new or released workspace for a call under cfg, a valid
// Config.
func (ws *workspace) begin(cfg Config) {
	pl, nt, binding := cfg.Platform, cfg.NThreads, cfg.Binding
	ws.cfg = cfg
	ws.info = core.LoopInfo{
		NThreads: nt,
		NumTypes: len(pl.Clusters),
		TypeOf:   func(tid int) int { return pl.ClusterOf(pl.CoreOf(tid, nt, binding)) },
		TypeDist: pl.TypeDist(),
	}
	if ws.fleet == nil || ws.fleetThreads != nt {
		ws.fleet, ws.fleetThreads = fair.NewFleet(nil, nt), nt
	}
}

// release ends the call ws served and puts ws into workspaces. It drops every
// reference to the call's Config, so that a pooled workspace keeps no
// Recorder, Metrics, factory, platform or policy reachable: the Config and
// the loop description, the schedulers, which go back to core's spares when
// Schedule.Factory built them (core.Recycle, which drops their loops and
// phase observers), the fleet's policy, the ledgers' counters, timeline and
// events, and the pointers in RunProgram's scratch result. Its tables stay.
//
// A call releases its workspace only when it returns, with or without an
// error, never when it panics: a workspace left half-run by a panicking
// factory, scheduler or cost model goes to the garbage collector.
func (ws *workspace) release() {
	ws.cfg, ws.info = Config{}, core.LoopInfo{}
	ws.forgetSchedulers()
	ws.scheds = ws.scheds[:0]
	ws.fleet.Reset(nil)
	// This call armed its ledgers for len(ws.typeOf) workers; the storage
	// past those, lanes and ledgers, was disarmed by the call that used it.
	for i := range ws.ledgers {
		ws.ledgers[i].Arm(ws.typeOf, nil, nil, nil, nil, 0, false)
	}
	lr := &ws.lr[0]
	*lr = LoopResult{Outcome: obs.Outcome{Iters: lr.Iters[:0]}, Finish: lr.Finish[:0]}
	workspaces.Put(ws)
}

// forgetSchedulers hands the previous run's schedulers to core.Recycle and
// makes the next run build its own with the configured factory: the loops
// it runs are not the previous run's, and the factory may configure their
// schedulers differently.
func (ws *workspace) forgetSchedulers() {
	for _, s := range ws.scheds {
		core.Recycle(s)
	}
	clear(ws.scheds)
}

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

// scheduler returns the scheduler for this run's loop li: the one the call's
// previous run left, re-armed, when that one can be; otherwise a new one from
// the configured factory (a call's first run, a replay script, a test probe).
func (ws *workspace) scheduler(li int, name string, info core.LoopInfo) (core.Scheduler, error) {
	if rs, ok := ws.scheds[li].(core.Resettable); ok {
		return rs, rs.Reset(info)
	}
	s, err := ws.cfg.buildScheduler(name, info)
	if err != nil {
		return nil, err
	}
	ws.scheds[li] = s
	return s, nil
}

// run is the simulator's one event loop (see the package comment). A nil
// policy selects team mode: specs is RunLoop's single loop, forked at
// startNs and joined at its barrier. A non-nil policy selects fleet mode:
// the loops share a persistent fleet under that policy, as RunLoops
// describes. results[i] is overwritten with the outcome of specs[i], in the
// manner of append: a slice field it already carries is reused when it is
// large enough, so zero results come back with new slices and a caller that
// passes the previous run's results gives up what those held. results has
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
		ws.scheds = sized(ws.scheds, nl)
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
	// Loop li's ledger streams its events, and a timed Recorder's intervals,
	// to the Config's Recorder in event-loop order. Not sized, which would
	// clear them: Arm re-arms each in place. tl and evs stay nil interfaces
	// unless set, so an unobserved lane does no interval or event work.
	ws.ledgers = slices.Grow(ws.ledgers[:0], nl)[:nl]
	ledgers := ws.ledgers
	var tl obs.Timeline
	var evs obs.Events
	if rec := cfg.Recorder; rec != nil {
		evs = rec
		if rec.Timed() {
			tl = rec
		}
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
			Outcome: obs.Outcome{Start: arrive[li], Iters: res.Iters[:0]},
			Finish:  sized(res.Finish, nt),
		}
		if rec := cfg.Recorder; rec != nil {
			addLoopRecord(rec, spec, s, stamp)
			if po, observable := s.(core.PhaseObservable); observable {
				// Decision capture: the record is where a run's phase
				// transitions and SF trajectory live. Without a recorder
				// the scheduler has no observer and copies no SF table.
				li := li
				po.SetPhaseObserver(func(ev core.PhaseEvent) {
					rec.Phase(trace.PhaseEvent{TimeNs: ev.TimeNs, Tid: ev.Tid, Loop: li,
						Epoch: ev.Epoch, Kind: ev.Kind, SF: ev.SF})
				})
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
	// loops), the fleet's grant with the scheduler calls served under it,
	// and the number of loops that have not retired the worker. A worker is
	// live while it owes a retirement; after its last one its clock is parked
	// at the end of time, so the earliest clock is always a live worker's.
	ws.clock, ws.cur, ws.grant = sized(ws.clock, nt), sized(ws.cur, nt), sized(ws.grant, nt)
	ws.served, ws.owed = sized(ws.served, nt), sized(ws.owed, nt)
	clock, cur, grant, served, owed := ws.clock, ws.cur, ws.grant, ws.served, ws.owed
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
		// from then on. Its zero grant is over, so its first event asks the
		// policy-free fleet, which leases it the lone loop for an unbounded
		// burst.
		clock[tid] += forkNs
		setCur(tid, 0)
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
		// admission ends every grant made before it (fair.Fleet.Over): an
		// unbounded single-tenant burst must yield the moment a second
		// tenant shows up.
		for ; arrived < nl && arrive[order[arrived]] <= now; arrived++ {
			admit(order[arrived])
		}

		// Deliver any due migration for this thread before it re-enters the
		// runtime (the "signal observed at next runtime call" semantics).
		for i := 0; i < len(migrations); i++ {
			mg := migrations[i]
			if mg.Tid != tid || mg.AtNs > now {
				continue
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
		// is over.
		li := cur[tid]
		if li < 0 || fleet.Over(grant[tid], served[tid]) {
			g, ok := fleet.Grant(tid)
			if !ok {
				// Nothing runnable yet (so the worker is between loops):
				// idle forward to the next arrival. One must exist —
				// owed[tid] > 0 and every arrived loop that still owes this
				// worker a retirement is runnable, so would have been a
				// candidate — and no loop retires a worker before it arrives.
				next := arrive[order[arrived]]
				if tl != nil {
					tl.Add(tid, now, next, trace.Sync)
				}
				clock[tid] = next
				continue
			}
			li, grant[tid], served[tid] = g.Slot, g, 0
			setCur(tid, li)
		}
		served[tid]++

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
			if !(units >= 0 && units <= math.MaxFloat64) {
				return fmt.Errorf("sim: loop %q: iterations [%d,%d) cost %v work units, want a finite non-negative cost",
					specs[li].Name, asg.Lo, asg.Hi, units)
			}
			execNs = units / speed[li*nt+tid]
		}
		// A platform's overheads can run the clock out as a cost can.
		if left := math.MaxInt64 - max(now, 0); !(ovhNs < 1<<63 && execNs < 1<<63) ||
			int64(ovhNs) >= left || int64(execNs) >= left-int64(ovhNs) {
			return fmt.Errorf("sim: loop %q: iterations [%d,%d) take %.4g ns of runtime calls and %.4g ns of execution on thread %d from %d ns, past the end of the virtual clock",
				specs[li].Name, asg.Lo, asg.Hi, ovhNs, execNs, tid, now)
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
			for w, finish := range res.Finish {
				// The conversion rounds each worker's energy before the sum,
				// so no fused multiply-add moves the total's last bit.
				ct := &pl.Clusters[typeOf[w]].Type
				res.EnergyJ += float64((float64(finish-res.Start)*ct.ActiveW + float64(res.End-finish)*ct.IdleW) * 1e-9)
			}
		}
		if cfg.Recorder != nil && res.SFEstimate != nil {
			cfg.Recorder.SFSample(trace.SFSample{TimeNs: res.End, Loop: li, SF: slices.Clone(res.SFEstimate)})
		}
	}
	if cfg.Recorder != nil {
		var maxEnd int64
		for i := range results {
			maxEnd = max(maxEnd, results[i].End)
		}
		cfg.Recorder.EndRun(maxEnd - startNs)
	}
	return nil
}
