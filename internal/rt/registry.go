package rt

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Registry is the multi-loop executor: it owns a fixed fleet of worker
// goroutines (one per modeled CPU, a small core's worker throttled as Team
// describes) and admits many concurrent loop submissions. Each
// admitted loop gets its own core.Scheduler — and therefore its own sharded
// iteration pool — for as long as it runs; a released loop's scheduler goes
// back to core's spares (core.Recycle), and the next loop of the same
// schedule re-arms it (core.Schedule.Factory), the way libgomp reuses a
// team's work-share instead of allocating one per loop. The fleet is shared:
// a configurable fairness policy (internal/fair) decides which runnable loop
// a free worker serves next. This is the building block for serving many users at once:
// one request's parallel loop no longer needs a private set of threads.
//
// Which loops are runnable, who has retired from which, the candidates, the
// policy's picks, the end of a worker's grant and the barrier release are a
// fair.Fleet's, the same machine the simulator runs; the registry drives it
// under its lock, asks it without the lock whether a grant is over
// (fair.Fleet.Over, once per chunk), and keeps to itself the spare ledgers
// and the lock-free chunk loop. A worker that receives ok=false from a
// loop's scheduler is retired from that loop (ok=false is terminal per
// thread, the contract every scheduler satisfies); the loop's implicit
// barrier releases — Wait returns — when all fleet workers have retired from
// it, which by the schedulers' exactly-once coverage guarantee is exactly
// when all of its iterations have executed. Other loops are unaffected:
// their workers keep running.
//
// Every loop runs over the full fleet with the registry's thread-to-core
// binding, so the scheduler-facing LoopInfo is the one a loop alone on the
// fleet (a Team's) sees and the big/small TypeOf mapping each AID variant
// assumes is stable for the duration of the loop. One fidelity caveat is
// inherent to sharing workers: an AID sampling window measured by a worker
// that was handed to another loop in between includes foreign-chunk time, so
// online SF estimates under heavy multi-tenancy are noisier than in
// dedicated fleets (coverage and barrier correctness are unaffected).
type Registry struct {
	platform *amp.Platform
	nthreads int
	binding  amp.Binding
	profile  amp.Profile
	slowdown []float64
	types    []int // per-worker home core type (cluster index)
	typeOf   func(tid int) int
	policy   fair.Policy
	base     time.Time
	// cpus is the CPU each worker binds its thread to, nil when the fleet
	// is left to the kernel's placement (doc.go, "Worker placement").
	cpus []int

	// dist caches the platform's cluster-distance matrix for the metrics
	// layer's provenance-tier bucketing (nil-safe; obs.Tier handles it).
	dist [][]int
	// metrics, when non-nil, holds the fleet-level counter cells — idle
	// time between picks, barrier waits included, lands here; per-loop
	// counters live on each Loop. Enabled by RegistryConfig.Metrics for the
	// registry's lifetime.
	metrics *obs.Metrics
	team    bool // a Team's: its loops, one at a time, own the barrier waits (obs.Ledger)

	mu   sync.Mutex
	cond *sync.Cond
	// fleet is set once, by NewRegistry; its methods are called under mu,
	// but for Over, which the workers call from their chunk loops.
	fleet *fair.Fleet
	// slots holds each admitted loop whose barrier has not released at its
	// fleet slot, nil where the slot is free (guarded by mu).
	slots  []*Loop
	nextID uint64
	closed bool
	wg     sync.WaitGroup
	// retiredAgg accumulates the metrics snapshots of completed loops
	// (guarded by mu), so MetricsSnapshot stays O(live loops), not
	// O(all loops ever served).
	retiredAgg obs.Snapshot
	// ledgers holds released loops' ledgers, disarmed, for Submit to re-arm
	// (guarded by mu): every loop of the registry has the fleet's width, so
	// any of them fits. At most as many as loops were ever in flight at once.
	ledgers []*obs.Ledger
}

// RegistryConfig configures NewRegistry.
type RegistryConfig struct {
	// Platform provides the topology and the per-core slowdown factors;
	// defaults to Platform A.
	Platform *amp.Platform
	// NThreads is the fleet size; 0 selects the platform core count.
	NThreads int
	// Binding defaults to BS (the convention all AID variants assume).
	Binding amp.Binding
	// Profile is the instruction mix used to derive emulated slowdown
	// factors from the platform model; the zero value is a moderate mix.
	Profile amp.Profile
	// Policy is the fairness policy handing workers between runnable
	// loops; defaults to fair.NewWeightedRoundRobin(0). A policy instance
	// is stateful and must not be shared between registries.
	Policy fair.Policy
	// Metrics enables the always-on runtime counters (internal/obs): each
	// loop gets per-worker counter cells surfaced via Outcome.Metrics,
	// and Registry.MetricsSnapshot serves the live fleet-wide view. The
	// hot path stays allocation free with metrics on (gated by
	// TestRegistryMetricsSteadyStateAllocs). Busy and sched time need both
	// of the chunk loop's stamps, which an unobserved, unthrottled worker
	// skips, so metrics cost up to two clock reads per chunk plus a few
	// plain adds into a batch flushed every 32 chunks (./bench measures it
	// as obs.metrics_overhead_pct; doc.go has the budget). A loop's IdleNs
	// is zero: the fleet's cells count a worker's barrier wait (obs.Ledger).
	Metrics bool
}

// NewRegistry builds the worker fleet and starts its goroutines. The fleet
// runs until Close.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	pl, nthreads := cfg.Platform, cfg.NThreads
	if pl == nil {
		pl = amp.PlatformA()
	}
	if nthreads < 0 || nthreads > pl.NumCores() {
		return nil, fmt.Errorf("rt: thread count %d out of range [0,%d] (0 selects the platform core count)", nthreads, pl.NumCores())
	}
	if nthreads == 0 {
		nthreads = pl.NumCores()
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = fair.NewWeightedRoundRobin(0)
	}
	r := &Registry{
		platform: pl,
		nthreads: nthreads,
		binding:  cfg.Binding,
		profile:  cfg.Profile,
		slowdown: make([]float64, nthreads),
		types:    make([]int, nthreads),
		policy:   cfg.Policy,
		base:     time.Now(),
		cpus:     placement(nthreads),
	}
	// The fastest core type runs unthrottled; the others are throttled by
	// their speed ratio to it.
	fastest := 0.0
	for tid := 0; tid < nthreads; tid++ {
		cpu := pl.CoreOf(tid, nthreads, cfg.Binding)
		r.types[tid] = pl.ClusterOf(cpu)
		r.slowdown[tid] = pl.Speed(cpu, cfg.Profile, 1)
		fastest = max(fastest, r.slowdown[tid])
	}
	for tid, speed := range r.slowdown {
		r.slowdown[tid] = fastest / speed
	}
	r.dist = pl.TypeDist()
	// One type-lookup closure for the registry's lifetime: LoopInfo wants a
	// func, and building a fresh closure per Submit is an allocation the
	// admission path does not need.
	types := r.types
	r.typeOf = func(tid int) int { return types[tid] }
	if cfg.Metrics {
		r.metrics = obs.New(nthreads, len(pl.Clusters), r.typeOf)
	}
	r.fleet = fair.NewFleet(cfg.Policy, nthreads)
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(nthreads)
	for tid := 0; tid < nthreads; tid++ {
		go r.worker(tid)
	}
	return r, nil
}

// NThreads returns the fleet size.
func (r *Registry) NThreads() int { return r.nthreads }

// Slowdown returns worker tid's emulated slowdown factor (1 = big core).
func (r *Registry) Slowdown(tid int) float64 { return r.slowdown[tid] }

// Policy returns the registry's fairness policy.
func (r *Registry) Policy() fair.Policy { return r.policy }

// InFlight returns the number of admitted loops whose barriers have not
// released yet — the service tier's saturation signal for admission
// control. It is a snapshot: by the time the caller acts, loops may have
// arrived or drained.
func (r *Registry) InFlight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fleet.Len()
}

// now returns monotonic nanoseconds since fleet creation (the timestamp
// source fed to the schedulers' sampling machinery).
func (r *Registry) now() int64 { return int64(time.Since(r.base)) }

// loopInfo builds the scheduler-facing description of a loop on this fleet.
// The platform's cluster-distance matrix rides along so sharded pools steal
// from the topologically nearest victim.
func (r *Registry) loopInfo(n int64) core.LoopInfo {
	return core.LoopInfo{
		NI:       n,
		NThreads: r.nthreads,
		NumTypes: len(r.platform.Clusters),
		TypeOf:   r.typeOf,
		TypeDist: r.platform.TypeDist(),
	}
}

// LoopRequest describes one loop submission.
type LoopRequest struct {
	// Name identifies the loop in reports and run records; "" selects
	// "loop-<id>".
	Name string
	// N is the trip count.
	N int64
	// Schedule selects the scheduling method (the zero value is the plain
	// static schedule).
	Schedule core.Schedule
	// Weight is the loop's relative fairness share; 0 selects 1.
	Weight int
	// Body executes iterations [lo, hi) on fleet worker tid.
	Body func(tid int, lo, hi int64)
	// Capture records the loop's real execution: wall-clock per-worker
	// timelines, every chunk grant, and the scheduler's phase transitions.
	// Workers append to their own tapes (trace.Tapes, which start empty and
	// grow in blocks; the lock-free hot path stays lock free), which
	// Registry.BuildRecord hands to a trace.Recorder.
	Capture bool
	// CaptureMaxEvents, with Capture, bounds the loop's events in a record
	// — the sampling recorder's reductions. A positive budget first merges
	// adjacent contiguous grants to the same worker (trace.CompactEvents,
	// which keeps every total and coarsens only grant granularity), then
	// keeps the first and the last CaptureMaxEvents/2 events of what still
	// exceeds it (trace.TrimToBudget). The tapes keep every event. 0 means
	// unbounded and uncompacted.
	CaptureMaxEvents int
}

// Loop is the handle of one admitted submission. Wait (or Done) observes
// the loop's own barrier: it releases when this loop's iterations are done,
// independent of the rest of the fleet's work.
type Loop struct {
	id       uint64
	name     string
	weight   int
	n        int64
	schedule core.Schedule // defaulted
	body     func(tid int, lo, hi int64)

	// slot is the loop's fleet slot until its barrier releases (guarded by
	// Registry.mu).
	slot int

	// sched and ledger are the loop's until its barrier releases; then
	// retire hands them back and sets them to nil under
	// Registry.mu. Nothing but Submit, the loop's own workers and its
	// release reads them.
	sched core.Scheduler
	// ledger accounts the loop's grants: lane tid is written only by worker
	// tid, and retire releases it once every worker has retired.
	ledger *obs.Ledger

	// metrics is non-nil when the registry runs with counters enabled: the
	// loop's per-worker cells (internal/obs), which its ledger's lanes flush
	// into and MetricsSnapshot scrapes.
	metrics *obs.Metrics

	// capture is non-nil when the loop records its execution: the sink of
	// its ledger and its scheduler's phase observer, whose tape tid is
	// appended only by worker tid.
	capture trace.Tapes
	// captureMax is the sampled-capture budget BuildRecord applies to the
	// loop's events (see LoopRequest.CaptureMaxEvents).
	captureMax int

	submitted time.Time
	latency   time.Duration
	stats     obs.Outcome
	done      chan struct{}
}

// ID returns the loop's admission-ordered identifier.
func (l *Loop) ID() uint64 { return l.id }

// Weight returns the loop's fairness weight.
func (l *Loop) Weight() int { return l.weight }

// Done returns a channel closed when the loop's barrier releases.
func (l *Loop) Done() <-chan struct{} { return l.done }

// Wait blocks until the loop's barrier releases and returns the loop's
// outcome. Its Start is the submission on the fleet's monotonic clock, and
// its Metrics exist only on registries built with RegistryConfig.Metrics.
func (l *Loop) Wait() obs.Outcome {
	<-l.done
	return l.stats
}

// Latency returns the submission-to-barrier-release duration. It is only
// meaningful once the loop is done.
func (l *Loop) Latency() time.Duration { return l.latency }

// errNilBody refuses a loop without a body, before any worker could call it.
var errNilBody = errors.New("rt: nil loop body")

// errClosed refuses a submission to a closed registry.
var errClosed = errors.New("rt: registry is closed")

// Submit admits a loop for execution on the fleet and returns immediately;
// the loop starts as soon as the policy hands workers to it. It fails if
// the registry is closed or the request is invalid.
func (r *Registry) Submit(req LoopRequest) (*Loop, error) {
	// Every check of the request comes before arm, and arm checks for a
	// closed registry before it takes a spare ledger or scheduler, so a
	// refused request takes neither. The closed check at
	// admission stays for a Close that lands after arm.
	if req.N < 0 {
		return nil, fmt.Errorf("rt: negative trip count %d", req.N)
	}
	if req.Body == nil {
		return nil, errNilBody
	}
	if req.Weight < 0 {
		return nil, fmt.Errorf("rt: negative loop weight %d", req.Weight)
	}
	if req.CaptureMaxEvents < 0 {
		return nil, fmt.Errorf("rt: negative capture event budget %d", req.CaptureMaxEvents)
	}
	if req.Weight == 0 {
		req.Weight = 1
	}
	l := &Loop{
		name:      req.Name,
		weight:    req.Weight,
		n:         req.N,
		schedule:  req.Schedule.WithDefaults(),
		body:      req.Body,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if err := r.arm(l); err != nil {
		return nil, err
	}
	var tl obs.Timeline
	var evs obs.Events
	if r.metrics != nil {
		l.metrics = obs.New(r.nthreads, len(r.platform.Clusters), r.typeOf)
		l.stats.Start = r.now()
	}
	if req.Capture {
		capture := make(trace.Tapes, r.nthreads)
		l.capture, tl, evs = capture, capture, capture
		l.stats.Start = r.now()
		l.captureMax = req.CaptureMaxEvents
		if po, ok := l.sched.(core.PhaseObservable); ok {
			// The observer runs on the transition-owning worker and appends
			// to that worker's own tape, so the capture path inherits the
			// schedulers' lock freedom.
			po.SetPhaseObserver(func(ev core.PhaseEvent) {
				capture.Phase(trace.PhaseEvent{TimeNs: ev.TimeNs, Tid: ev.Tid, Epoch: ev.Epoch, Kind: ev.Kind, SF: ev.SF})
			})
		}
	}
	l.ledger.Arm(r.types, r.dist, l.metrics, tl, evs, 0, r.team)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errClosed
	}
	l.id = r.nextID
	r.nextID++
	if l.name == "" {
		// One allocation at any ID: Sprintf boxes an ID past 255, and
		// concatenating FormatUint's result allocates twice past 99.
		var buf [24]byte
		l.name = string(strconv.AppendUint(append(buf[:0], "loop-"...), l.id, 10))
	}
	l.slot = slices.Index(r.slots, nil)
	if l.slot < 0 {
		l.slot = len(r.slots)
		r.slots = append(r.slots, nil)
	}
	r.slots[l.slot] = l
	r.fleet.Admit(l.slot, l.id, l.weight)
	r.cond.Broadcast()
	r.mu.Unlock()
	return l, nil
}

// arm gives l a scheduler armed for its trip count, from its schedule's
// factory, which re-arms a spare one when a released loop left one, and a
// ledger for Submit to arm: a released loop's, when the registry holds one. A
// request finds a closed registry in the critical section that takes the
// ledger, and takes nothing.
func (r *Registry) arm(l *Loop) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return errClosed
	}
	if n := len(r.ledgers); n > 0 {
		l.ledger, r.ledgers = r.ledgers[n-1], r.ledgers[:n-1]
	}
	r.mu.Unlock()
	if l.ledger == nil {
		l.ledger = new(obs.Ledger)
	}
	var err error
	l.sched, err = l.schedule.Factory()(r.loopInfo(l.n))
	return err
}

// BuildRecord assembles a serializable run record from completed captured
// loops — the real-engine analog of the simulator's native recording. All
// loops must have been submitted to this registry with Capture set and have
// released their barriers. Their tapes go to one trace.Recorder
// (Recorder.AddTapes), and each grant's abstract work units are derived
// from its measured wall time and the platform speed model, so
// internal/replay can re-execute and what-if the run in virtual time. A
// record of one loop carries its timeline. A loop's SF trajectory is the SF
// tables its phases published, the last of them its Outcome.SFEstimate; the
// record holds no other copy. The tapes are never modified, so
// records built from the same loops are equal; none is built under the
// registry lock.
func (r *Registry) BuildRecord(loops ...*Loop) (*trace.Record, error) {
	if len(loops) == 0 {
		return nil, fmt.Errorf("rt: no loops to record")
	}
	var startNs, endNs int64
	for i, l := range loops {
		select {
		case <-l.done:
		default:
			return nil, fmt.Errorf("rt: loop %q has not released its barrier", l.name)
		}
		if l.capture == nil {
			return nil, fmt.Errorf("rt: loop %q was not submitted with Capture", l.name)
		}
		if i == 0 || l.stats.Start < startNs {
			startNs = l.stats.Start
		}
		endNs = max(endNs, l.stats.End)
	}
	rec, policy := trace.NewTimedRecorder(), ""
	if len(loops) > 1 {
		rec, policy = trace.NewRecorder(), r.policy.Name()
	}
	if err := rec.BeginRun(trace.RunMeta{
		Engine:   "rt",
		Platform: trace.PlatformRecordOf(r.platform),
		NThreads: r.nthreads,
		Binding:  r.binding.String(),
		Policy:   policy,
		StartNs:  startNs,
	}); err != nil {
		return nil, err
	}
	for _, l := range loops {
		rec.AddTapes(trace.LoopRecord{
			Name:      l.name,
			NI:        l.n,
			Weight:    l.weight,
			Scheduler: l.stats.SchedulerName,
			Schedule:  l.schedule.Canonical(),
			Profile:   r.profile,
		}, l.capture, l.captureMax)
	}
	rec.EndRun(endNs - startNs)
	out := rec.Record()
	// The modeled per-worker speed converts measured wall time to work
	// units. Cluster occupancy is the full fleet, matching the simulator's
	// single-loop model where every worker is resident.
	occupancy := make([]int, len(r.platform.Clusters))
	for _, typ := range r.types {
		occupancy[typ]++
	}
	speed := make([]float64, r.nthreads)
	for tid := range speed {
		speed[tid] = r.platform.Speed(r.platform.CoreOf(tid, r.nthreads, r.binding), r.profile, occupancy[r.types[tid]])
	}
	for i := range out.Events {
		if ev := &out.Events[i]; !ev.Retire {
			ev.Cost = float64(ev.ExecNs) * speed[ev.Tid]
		}
	}
	return out, nil
}

// Close stops accepting submissions, lets the already-admitted loops drain,
// and joins the worker fleet. It blocks until every worker has exited and
// is safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// worker is one fleet goroutine: pick a loop under the fairness policy,
// serve it until the fleet says the grant is over, repeat. The control
// plane (pick/retire) takes the registry lock only between bursts; the
// chunk loop in between is lock free and reads the clock at most twice per
// chunk, schedEnd after Next and end after the body, and only for a consumer:
// which reads a burst takes is decided when it starts, and an unobserved
// worker drops end mid-burst once the scheduler stops needing it (doc.go has
// the budget). The stamps are chained — a chunk's end is the next chunk's
// nowNs, re-read only when a burst starts — and shared by the schedulers'
// sampling, the small-core throttle and the loop's ledger, whose metrics and
// capture intervals therefore tile a burst without gaps.
func (r *Registry) worker(tid int) {
	defer r.wg.Done()
	if r.cpus != nil {
		bind(r.cpus[tid])
	}
	// stretch is the share of its own time a body is stretched by on this
	// worker: a chunk that ran d ns occupies the worker for d·(1+stretch),
	// so its effective throughput is 1/slowdown of a big core's.
	stretch := r.slowdown[tid] - 1
	// idle is this worker's registry-lifetime counter cell, nil without
	// metrics: its time without a loop — between loops, and waiting out the
	// barrier of a loop it retired from — lands here, not on any tenant.
	var idle *obs.Cell
	if r.metrics != nil {
		idle = r.metrics.Cell(tid)
	}
	// The fleet pointer is read once: it shares a cache line with mu.
	fleet := r.fleet
	// wseq totally orders this worker's captured events across loops; the
	// wall clock alone cannot (two grants can land in the same nanosecond
	// tick on coarse timers), and replay needs the per-worker grant order.
	var wseq int64
	for {
		var pickStart int64
		if idle != nil {
			pickStart = r.now()
		}
		l, g := r.pick(tid)
		nowNs := r.now()
		if idle != nil {
			idle.Idle(nowNs - pickStart)
		}
		if l == nil {
			return
		}
		ln := l.ledger.Lane(tid)
		ln.Seq = wseq
		// split: something needs Next's time apart from the body's (the
		// throttle stretches the body only; the ledger's metrics and capture
		// tell Sched from Running). clocked: something needs the chunk's end —
		// split's consumers, or a scheduler that samples nowNs. An
		// unthrottled, unobserved worker reads no clock per chunk under a
		// clock-free schedule, and under any other asks again every askEvery
		// chunks, so an AID thread past its last sampling point drains
		// clock-free too.
		split := stretch > 0 || l.metrics != nil || l.capture != nil
		clocked := split || core.ReadsClock(l.sched, tid)
		const askEvery = 32
		for served := 0; ; served++ {
			if fleet.Over(g, served) {
				// The grant is used up, or a new loop arrived: publish the
				// lane's counts and give the policy a say.
				wseq = ln.Seq
				ln.Flush()
				break
			}
			asg, ok := l.sched.Next(tid, nowNs)
			schedEnd := nowNs
			if split {
				schedEnd = r.now()
			}
			ln.Call(asg, nowNs, schedEnd)
			if !ok {
				ln.Retire(asg, nowNs, schedEnd)
				wseq = ln.Seq // once retire returns, the lane may be re-armed
				r.retire(l, tid)
				break
			}
			l.body(tid, asg.Lo, asg.Hi)
			end := nowNs // stays the last read on the clock-free path
			if clocked {
				end = r.now()
				if stretch > 0 {
					// Busy wait, as a pinned thread on a slow core would keep
					// its core busy; the spin's last read is the chunk's end.
					for deadline := end + int64(float64(end-schedEnd)*stretch); end < deadline; {
						end = r.now()
					}
				}
			}
			ln.Chunk(asg, nowNs, schedEnd, end, 0)
			nowNs = end
			if clocked && !split && served%askEvery == askEvery-1 && !core.ReadsClock(l.sched, tid) {
				clocked = false // and stays false: ReadsClock is monotone
			}
		}
	}
}

// pick blocks until the fleet has a loop that still wants scheduler calls
// from worker tid, returning it with the fleet's grant of it, or returns nil
// after Close once nothing is left for this worker. A lone runnable loop gets
// an unbounded burst from the built-in policies — the grant is over the
// moment a second loop is admitted (fair.Fleet.Over) — so single-tenant
// execution pays one pick per loop, not one per chunk.
func (r *Registry) pick(tid int) (*Loop, fair.Grant) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if g, ok := r.fleet.Grant(tid); ok {
			return r.slots[g.Slot], g
		}
		if r.closed {
			return nil, fair.Grant{}
		}
		r.cond.Wait()
	}
}

// retire records that worker tid has no more work in loop l. The last
// retirement releases the loop's barrier: the fleet drops the loop, the
// ledger's Release publishes its stats (under the registry lock, after every
// worker's retirement — the quiescent merge of obs's counter invariants), its
// scheduler and ledger are recycled, and Done/Wait unblock.
func (r *Registry) retire(l *Loop, tid int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.fleet.Retire(l.slot, tid) {
		return
	}
	r.slots[l.slot] = nil
	l.latency = time.Since(l.submitted)
	l.ledger.Release(0, l.sched, &l.stats)
	if l.metrics == nil && l.capture == nil {
		l.stats.End = 0 // its retirement stamps are stale (obs.Outcome)
	}
	if snap := l.stats.Metrics; snap != nil {
		r.retiredAgg = r.retiredAgg.Add(*snap)
	}
	// The scheduler goes back to core's spares, which drop its loop and phase
	// observer, and the ledger, disarmed, to the registry: neither keeps
	// anything of the loop (TestRegistryRecycleKeepsNoLoop).
	core.Recycle(l.sched)
	l.ledger.Arm(r.types, nil, nil, nil, nil, 0, false)
	r.ledgers = append(r.ledgers, l.ledger)
	l.sched, l.ledger = nil, nil
	close(l.done)
}

// MetricsSnapshot returns the live fleet-wide counter view: everything the
// completed loops retired plus a scrape of the in-flight loops' cells and
// the fleet's own idle cells. It returns the zero Snapshot when the
// registry was built without Metrics. Cold path: safe to call from a
// scrape handler at any rate that tolerates taking the registry lock.
func (r *Registry) MetricsSnapshot() obs.Snapshot {
	if r.metrics == nil {
		return obs.Snapshot{}
	}
	r.mu.Lock()
	agg := r.retiredAgg
	live := make([]*obs.Metrics, 0, r.fleet.Len())
	for _, l := range r.slots {
		if l != nil && l.metrics != nil {
			live = append(live, l.metrics)
		}
	}
	r.mu.Unlock()
	for _, m := range live {
		agg = agg.Add(m.Snapshot())
	}
	return agg.Add(r.metrics.Snapshot())
}

// MetricsEnabled reports whether the registry was built with Metrics.
func (r *Registry) MetricsEnabled() bool { return r.metrics != nil }
