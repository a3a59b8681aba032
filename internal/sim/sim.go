// Package sim is the discrete-event execution engine of the reproduction:
// it runs OpenMP-style programs (sequences of serial phases and parallel
// loops) on a modeled asymmetric multicore platform in virtual time.
//
// Substituting simulation for the paper's physical testbeds is the central
// reproduction decision: the runtime (internal/rt) can bind a thread to a
// CPU but not to a core of a chosen type, since the host has no big and
// small cores, but every phenomenon the paper studies is a function of (a) per-loop
// big/small speed ratios and (b) runtime overhead per iteration-pool access —
// both first-class quantities in this model. The virtual clock has
// nanosecond resolution and the engine is fully deterministic: the same
// configuration always yields the same trace.
//
// # The engine
//
// One simulated worker thread is bound to each platform CPU according to
// the SB/BS convention (§5), and one event loop (run, in engine.go) drives
// every execution; RunLoop and RunLoops are its two entry points. Each
// worker carries a virtual clock. An event picks the live worker with the
// earliest clock (ties go to the lowest thread ID) and, at that worker's
// time, in this order: admits the loops whose arrival stamp has passed,
// delivers the worker's due migrations (the thread observes the OS signal
// when it next enters the runtime, §4.3; every scheduler that has not yet
// retired the worker is told), asks the fleet for a grant if the worker is
// between loops or the fleet says its current one is over (its burst is used
// up, or a loop was admitted since: fair.Fleet.Over), and makes one runtime
// call — Scheduler.Next on the served loop. The worker's clock then advances
// past the call's overhead and the granted chunk's execution, so time never
// runs backwards and an event's effects are visible to every later event.
//
// A runtime call is charged, whether or not it hands out work (the final
// empty call that retires the worker still touches the pool):
// PoolAccessNs per pool access, plus ContentionNs per access and per OTHER
// worker engaged on the accessed shard's line (contenders), plus
// TimestampNs per clock read, plus — for a chunk that does not extend the
// worker's previous chunk of that loop — a cache-refill penalty tiered by
// the distance between the worker's core type and the chunk's home shard
// (localityNs). The chunk then executes for its cost-model units divided by
// the platform speed of the worker's core for the loop's instruction mix,
// at the cluster occupancy of the whole fleet.
//
// # Team and fleet
//
// The engine has two modes, told apart by what the caller asks for, not by
// an option. Both keep their loops in a fair.Fleet, the machine rt.Registry
// drives too: it knows which loops are runnable and who has retired from
// each, grants a worker a loop, tells when the grant is over, and releases a
// loop's barrier at its last retirement. RunLoop runs a fork/join team: one
// loop, every worker forked onto it at the start (half of ForkJoinNs before
// the first runtime call, the other half after the last retirement), under a
// fleet without a policy, whose one grant per worker leases it the loop for
// an unbounded burst that no admission ends.
// RunLoops runs a persistent fleet, the model of rt.Registry: no fork/join
// cost, loops admitted at their arrival stamps, workers granted runnable
// loops in bursts, a worker with nothing runnable idling forward to the
// next arrival.
//
// The modes differ in who counts as engaged on a loop's pool lines at the
// start, and that is the one difference in what a pool access costs. A
// team's workers all contend from the fork, because all of them are about to
// call into the same pool. A fleet worker is engaged on a loop only from the
// moment the policy hands it that loop until it retires from it or is
// handed another, so the first workers to reach a fresh loop find its lines
// empty, and a worker parked against a future arrival or busy on another
// loop's pool contends with nobody.
//
// A loop owns its workers' barrier waits and energy only when it owns its
// fleet, the rule obs.Ledger keeps for both engines. In a team each worker
// idles from its own retirement to the release, and its core draws ActiveW
// before and IdleW after, so LoopResult.EnergyJ, the Sync intervals of a
// timed Config.Recorder's timeline and Metrics.IdleNs are filled. A fleet worker that retires
// from one loop moves on to the next, so those fields stay zero and the only
// Sync intervals of a fleet timeline are the idle-forwards.
//
// # What a call allocates
//
// Everything the event loop needs between its first and its last event lives
// in one workspace (engine.go): the scheduler-facing loop description with its
// TypeOf mapping, built for each call; the platform's TypeDist matrix, which
// amp.Platform builds once and everybody shares read-only; the fleet and the
// loops' ledgers; and some twenty tables — placement, speeds, clocks, grants,
// engagement counts, the fleet's retirements and candidate scratch — which a
// call sizes on first use and clears, not reallocates, afterwards.
//
// A workspace outlives its call. RunLoop, RunLoops and RunProgram take one
// from a package-level sync.Pool and hand it back when they return, so the
// hundreds of calls of a figure sweep size their tables in storage that
// earlier calls grew, under whatever Config those ran. Before it goes back,
// the workspace forgets its call: the Config with its factory, Recorder and
// platform, the loop description, the schedulers, the fleet's policy, the
// ledgers' Metrics, timeline and events. What it keeps is plain tables. A call
// that panics (a factory, scheduler or cost model) does not hand its half-run
// workspace back.
//
// A scheduler that core.Schedule.Factory built outlives its call as well:
// release hands it to core.Recycle, which drops its loop and phase observer
// and keeps it as a spare of its schedule and shape, on a list that the
// garbage collector never empties, and the next build of that key, by any
// call on any goroutine or by an rt.Registry, re-arms it (core.Resettable)
// instead of building anew. Any other scheduler (a replay
// script, an experiment's own factory, a test probe) is left to the garbage
// collector. Within its call, a workspace remembers the schedulers of its
// previous run and re-arms one instead of asking the factory for another; a
// scheduler that cannot be re-armed comes from the factory every time.
//
// RunLoop and RunLoops make one run each. RunProgram makes one run per loop
// phase, and under Config.Factory builds one scheduler for the whole program:
// the first loop phase builds it and every later phase re-arms it for its own
// loop, so a program of twenty loop phases builds one scheduler, not twenty.
// Under Config.FactoryNamed, which may configure each loop's scheduler
// differently, it builds one per loop phase. A repetition it accounts from the
// phase's first execution (see "Repetitions") allocates nothing; one it
// simulates without a Recorder allocates only the copy of the final SF
// estimate its scheduler hands the result. A warm, unrecorded one-loop
// RunProgram allocates the TypeOf mapping, that copy and its scheduler, unless
// Schedule.Factory re-arms a spare. A
// scheduler is given a phase observer only when the Config carries a
// Recorder, so the SF tables it publishes mid-run are copied into the record
// and nowhere else.
//
// Results are never part of the workspace. The engine fills the LoopResults
// it is handed the way append fills a slice: zero results, which is what
// RunLoop and RunLoops pass, come back with slices of their own, so a result
// a caller holds is not touched by any later call, whatever that call
// recycles; RunProgram, which reads a repetition's result and drops it, keeps
// one scratch result in the workspace and hands it in for every run, so it
// reuses that result's slices too. SFEstimate is a copy the scheduler made
// for the result; the scheduler's own tables, which the next Reset
// overwrites, are only ever read through it.
//
// # Repetitions
//
// A run is a function of its Config and its specs, translated by startNs:
// start the same loops d nanoseconds later (on a fleet, with every Arrive
// stamp moved by d as well) and every time in the results — Start, End and
// Finish — is d later, and nothing else changes. It
// holds because virtual time enters the model only as differences. The engine
// adds durations, which it computes from counts, cost units and speeds, to
// clocks that start at startNs; a cost model is keyed by iteration index; and
// a scheduler may use the nowNs it is handed only through differences
// (core.Scheduler). Since the engine is deterministic and a re-armed scheduler
// is a new one (core.Resettable), every execution of a loop phase is the
// phase's first execution translated to where the previous one ended.
//
// RunProgram spends that. It simulates the first execution of a phase and
// accounts the other Reps-1 as copies of it: PoolAccesses and the program's
// clock, so TotalNs, advance by their count times the first execution's
// values, which is to the digit what simulating each of them adds up to. A
// phase whose count would run either past int64 fails the call with an error
// naming the program, as a serial phase too long for the clock does. It
// still simulates each of them whenever something could tell them apart:
//
//   - Config.Recorder is set: a record holds one run, so a program's second
//     execution is refused with BeginRun's error. Accounting it instead would
//     hand back a record that is silently short of the program it describes.
//     A program's serial phases are in no record: a timed Recorder's
//     timeline is its one loop execution's.
//   - Config.Migrations is not empty: AtNs is a point on the absolute clock,
//     so the execution it falls into, those before and those after all differ.
//   - the phase's scheduler is not a core.Resettable (a replay script, a test
//     probe): the contract is written down for the schedulers that are, and
//     the factory is owed one call per execution (SchedulerFactory).
//
// TestRunTimeTranslation pins the contract (every zoo platform x schedule
// family x cost model x binding, as a team and as a fleet under each policy,
// at five starts up to 2^61) and exps.TestRunProgramDifferential the
// accounting (all 21 applications x the Fig. 6 schemes: accounted = re-armed
// and simulated every time = RunLoop chained by hand). The model has no
// variation between the invocations of a loop at all today. A change that adds
// one — noise per invocation, an SF estimate carried from one invocation to
// the next, a throttle at an absolute time — makes an execution depend on its
// index or on its start, must fail one of the two tests before it is merged,
// and has to show RunProgram what it added, the way the attachments above are
// seen, rather than leave it accounting executions that are no longer alike.
//
// # Concurrency
//
// A call runs on its caller's goroutine and starts none. Calls under distinct
// Configs are independent and may run at the same time, which is how
// internal/exps fills a figure's grid: the platform, the cost models and the
// loop descriptions are only read, and every table a call writes is in the
// workspace it holds, which no other call holds until it is back in the pool.
// What a Config points to and a call writes is not shared that way: a Config
// carrying a Recorder serves one call at a time, and so does a stateful
// fair.Policy handed to RunLoops.
package sim

import (
	"fmt"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/trace"
)

// CostModel gives the computational weight of loop iterations in abstract
// work units (1 unit ≈ 1 instruction of the modeled ISA).
type CostModel interface {
	// Units returns the cost of iteration i.
	Units(i int64) float64
	// RangeUnits returns the summed cost of iterations [lo, hi). It must
	// equal the sum of Units over the range; implementations provide
	// closed-form versions where possible because the simulator calls it
	// for every chunk. A run fails on a chunk whose cost is negative, NaN
	// or infinite, or would run its thread's clock past the int64 range.
	RangeUnits(lo, hi int64) float64
}

// UniformCost models loops whose iterations all cost the same (e.g. EP).
type UniformCost struct {
	PerIter float64
}

// Units implements CostModel.
func (u UniformCost) Units(int64) float64 { return u.PerIter }

// RangeUnits implements CostModel.
func (u UniformCost) RangeUnits(lo, hi int64) float64 { return float64(hi-lo) * u.PerIter }

// LinearCost models loops whose cost drifts linearly with the iteration
// index: Units(i) = Base + Slope·i. particlefilter's long-running loop —
// whose final iterations are the heaviest (§5A) — uses a positive slope.
type LinearCost struct {
	Base, Slope float64
}

// Units implements CostModel.
func (l LinearCost) Units(i int64) float64 { return l.Base + l.Slope*float64(i) }

// RangeUnits implements CostModel (closed form).
func (l LinearCost) RangeUnits(lo, hi int64) float64 {
	n := float64(hi - lo)
	// sum of indices lo..hi-1 = n*(lo+hi-1)/2
	return l.Base*n + l.Slope*n*(float64(lo+hi-1))/2
}

// LoopSpec describes one parallel loop.
type LoopSpec struct {
	// Name identifies the loop in reports (e.g. "ep-main").
	Name string
	// NI is the trip count.
	NI int64
	// Profile is the loop body's instruction mix, which determines the
	// per-core-type speed (and therefore the loop's SF).
	Profile amp.Profile
	// Cost is the per-iteration work model.
	Cost CostModel
	// Weight is the loop's relative fairness share on a fleet (RunLoops);
	// 0 selects the default weight 1. A team (RunLoop) consults no policy
	// and ignores it.
	Weight int
	// Arrive is the loop's admission time on the virtual clock on a fleet
	// (RunLoops) — the open-loop arrival stamp. The loop is invisible to
	// the fairness policy before Arrive, and its latency is End-Arrive.
	// Values at or below the run's startNs (including the zero value) mean
	// "admitted at start", which keeps the closed-loop callers unchanged. A
	// team (RunLoop) forks at startNs and ignores it.
	Arrive int64
}

// Validate checks the loop description.
func (ls LoopSpec) Validate() error {
	if ls.NI < 0 {
		return fmt.Errorf("sim: loop %q has negative trip count %d", ls.Name, ls.NI)
	}
	if ls.Cost == nil {
		return fmt.Errorf("sim: loop %q has no cost model", ls.Name)
	}
	if ls.Weight < 0 {
		return fmt.Errorf("sim: loop %q has negative weight %d", ls.Name, ls.Weight)
	}
	return ls.Profile.Validate()
}

// SchedulerFactory builds the scheduler for one execution of one loop.
// RunLoop and RunLoops call it once per loop. RunProgram calls it once per
// program when what it returns implements core.Resettable — every further
// execution, of the same loop phase or a later one, re-arms that scheduler
// for its loop, or is accounted from its phase's first execution without one
// ("Repetitions" in the package comment) — and once per execution otherwise.
// A factory sees a loop only through info, so it must return the same kind of
// scheduler, configured the same way, for every loop of a program: what it
// makes of one loop's info a Reset makes of the next's. A configuration that
// differs between loops belongs in Config.FactoryNamed. What it returns is the
// call's: at its end one that core.Schedule.Factory built goes to core.Recycle.
type SchedulerFactory func(info core.LoopInfo) (core.Scheduler, error)

// Config describes one simulated program execution.
type Config struct {
	// Platform is the modeled machine.
	Platform *amp.Platform
	// NThreads is the worker count (the paper runs one thread per core).
	NThreads int
	// Binding is the thread-to-core mapping convention (SB or BS).
	Binding amp.Binding
	// Factory builds the per-loop scheduler.
	Factory SchedulerFactory
	// FactoryNamed, when non-nil, takes precedence over Factory and also
	// receives the loop's name, letting experiments key behaviour per loop
	// (e.g. the per-loop offline-SF tables of §5C). RunProgram calls it once
	// per loop phase, not once per program, when what it returns implements
	// core.Resettable, and once per execution otherwise.
	FactoryNamed func(loopName string, info core.LoopInfo) (core.Scheduler, error)
	// Migrations lists OS-driven thread migrations to inject (§4.3). A
	// migration takes effect the next time the affected thread enters the
	// runtime system at or after AtNs — modeling the paper's proposal of a
	// signal delivered to the process, observed at the next runtime call.
	// Schedulers implementing core.Migratable are notified, on a fleet
	// those of every loop that has not yet retired the thread.
	Migrations []Migration
	// Recorder, when non-nil, captures the run as a serializable
	// trace.Record — loop descriptors, every chunk grant with its
	// runtime-cost metadata, AID phase transitions and the SF trajectory —
	// for internal/replay. A Recorder serves exactly one RunLoop or RunLoops
	// call. A timed one (trace.NewTimedRecorder) also records per-thread
	// timelines: Sched and Running for every runtime call and chunk, Sync
	// for a team's barrier waits and a fleet worker's idle-forwards; a
	// fleet loop's barrier waits are the fleet's, not the loop's
	// (obs.Ledger).
	Recorder *trace.Recorder
	// Metrics populates LoopResult.Metrics with the runtime-counter
	// snapshot (internal/obs) of each loop: chunks and steals by provenance
	// tier, credit traffic, and the virtual-time busy/sched/idle split. The
	// counters observe the same quantities the real-goroutine registry
	// counts, so cross-engine comparisons read the same schema. Counting
	// never perturbs the virtual clock.
	Metrics bool
}

// Migration is one OS-driven thread-to-core move.
type Migration struct {
	// AtNs is the earliest virtual time the migration can take effect.
	AtNs int64
	// Tid is the affected worker thread.
	Tid int
	// ToCPU is the destination CPU number.
	ToCPU int
}

// Validate checks the configuration. A migration must name a worker of the
// run and a CPU of the platform, whether or not it comes due.
func (c Config) Validate() error {
	if c.Platform == nil {
		return fmt.Errorf("sim: nil platform")
	}
	if c.NThreads <= 0 || c.NThreads > c.Platform.NumCores() {
		return fmt.Errorf("sim: thread count %d out of range [1,%d]", c.NThreads, c.Platform.NumCores())
	}
	if c.Factory == nil && c.FactoryNamed == nil {
		return fmt.Errorf("sim: nil scheduler factory")
	}
	for _, m := range c.Migrations {
		if m.Tid < 0 || m.Tid >= c.NThreads {
			return fmt.Errorf("sim: migration of thread %d, out of range [0,%d)", m.Tid, c.NThreads)
		}
		if m.ToCPU < 0 || m.ToCPU >= c.Platform.NumCores() {
			return fmt.Errorf("sim: migration to CPU %d, out of range [0,%d)", m.ToCPU, c.Platform.NumCores())
		}
	}
	return nil
}

// buildScheduler invokes the configured factory for one loop execution.
func (c Config) buildScheduler(loopName string, info core.LoopInfo) (core.Scheduler, error) {
	if c.FactoryNamed != nil {
		return c.FactoryNamed(loopName, info)
	}
	return c.Factory(info)
}

// LoopResult reports one loop execution: the outcome both engines report
// (obs.Outcome), whose Start is the fork time of a team and the admission
// time of a fleet loop, and whose End includes a team's join, plus what only
// the model knows.
type LoopResult struct {
	obs.Outcome
	// SchedNs is the total runtime-system time summed over threads.
	SchedNs int64
	// Finish is each thread's arrival time at the implicit barrier.
	Finish []int64
	// EnergyJ is the modeled energy of the loop in Joules, summed over the
	// worker-occupied cores of every cluster: each worker draws its core
	// type's ActiveW from fork to its barrier arrival and IdleW from there to
	// barrier release. Unoccupied cores are not charged. Filled for a team
	// (RunLoop); zero for a fleet loop (RunLoops), since fleet energy cannot
	// be attributed to one loop.
	EnergyJ float64
}

// localityNs prices a chunk-discontinuity cache refill by the chunk's
// provenance: a chunk from the thread's home shard refills from the home
// cluster's LLC (base tier), a same-package foreign chunk crosses LLCs
// (foreign tier), a cross-package chunk pays the interconnect (remote
// tier). Shared-origin chunks (Origin < 0) have no provenance and charge
// the base tier, the pre-topology behavior.
func localityNs(ov amp.Overheads, dist [][]int, ownType, origin int) float64 {
	if origin < 0 || origin >= len(dist) {
		return ov.LocalityPenaltyNs
	}
	switch dist[ownType][origin] {
	case 0:
		return ov.LocalityPenaltyNs
	case 1:
		return ov.LocalityForeignNs
	default:
		return ov.LocalityRemoteNs
	}
}

// contenders returns how many OTHER threads an assignment's pool accesses
// contend with: threads actively scheduling on the origin shard's line,
// plus the claimer itself when it reached across (a foreign access adds
// one accessor the shard's home population does not include). A shared
// origin (Origin < 0) contends with every active thread — a single global
// line.
func contenders(activeByType []int, activeCount, ownType, origin int) int {
	var occ int
	if origin < 0 || origin >= len(activeByType) {
		occ = activeCount
	} else {
		occ = activeByType[origin]
		if origin != ownType {
			occ++
		}
	}
	if occ <= 1 {
		return 0
	}
	return occ - 1
}

// RunLoop simulates one fork/join execution of the loop starting at startNs
// and returns the result: the engine's team mode (see the package comment).
// The caller sequences loops and serial phases.
func RunLoop(cfg Config, spec LoopSpec, startNs int64) (LoopResult, error) {
	ws, err := newWorkspace(cfg)
	if err != nil {
		return LoopResult{}, err
	}
	var res [1]LoopResult
	err = ws.run(res[:], []LoopSpec{spec}, nil, startNs)
	ws.release()
	if err != nil {
		return LoopResult{}, err
	}
	return res[0], nil
}

// RunLoops simulates the concurrent execution of several parallel loops on
// one persistent worker fleet in virtual time — the engine's fleet mode and
// the discrete-event model of the multi-loop registry (internal/rt). Each
// loop is admitted at its LoopSpec.Arrive stamp (clamped up to startNs; the
// zero value admits at start, the closed-loop case), so an open-loop
// arrival stream maps directly onto specs. Each loop gets its own scheduler
// instance (and so its own sharded iteration pool) and its own barrier,
// while the fleet's workers are handed between runnable loops by the
// fairness policy (nil selects weighted round-robin). Because the same
// fair.Policy implementations drive both engines, fairness behaviour
// sanity-checked here deterministically carries over to the real-goroutine
// executor. The i-th result corresponds to specs[i].
func RunLoops(cfg Config, specs []LoopSpec, policy fair.Policy, startNs int64) ([]LoopResult, error) {
	if policy == nil {
		policy = fair.NewWeightedRoundRobin(0)
	}
	ws, err := newWorkspace(cfg)
	if err != nil {
		return nil, err
	}
	results := make([]LoopResult, len(specs))
	err = ws.run(results, specs, policy, startNs)
	ws.release()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MeasureLoopSF reproduces the paper's offline SF measurement (§2): run the
// loop with a single thread on a big core and again on a small core and
// return the completion-time ratio. The single-threaded runs see no LLC
// contention from sibling threads — the source of the offline-SF bias that
// Fig. 9c documents.
func MeasureLoopSF(pl *amp.Platform, spec LoopSpec) (float64, error) {
	oneThread := func(b amp.Binding) (int64, error) {
		cfg := Config{
			Platform: pl,
			NThreads: 1,
			Binding:  b,
			Factory: func(info core.LoopInfo) (core.Scheduler, error) {
				return core.NewStatic(info)
			},
		}
		r, err := RunLoop(cfg, spec, 0)
		if err != nil {
			return 0, err
		}
		return r.End - r.Start, nil
	}
	// BS puts the single thread on the highest CPU (big); SB on CPU 0 (small).
	tBig, err := oneThread(amp.BindBS)
	if err != nil {
		return 0, err
	}
	tSmall, err := oneThread(amp.BindSB)
	if err != nil {
		return 0, err
	}
	if tBig <= 0 {
		return 0, fmt.Errorf("sim: loop %q completed in non-positive time on big core", spec.Name)
	}
	return float64(tSmall) / float64(tBig), nil
}
