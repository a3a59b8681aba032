package rt

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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
// on a bounded free list and is re-armed through core.Resettable for a later
// loop of the same schedule, the way libgomp reuses a team's work-share
// instead of allocating one per loop. The fleet is shared: a configurable
// fairness policy (internal/fair) decides which runnable loop a free worker
// serves next. This is the building block for serving many users at once:
// one request's parallel loop no longer needs a private set of threads.
//
// Which loops are runnable, who has retired from which, the candidates, the
// policy's picks and the barrier release are a fair.Fleet's, the same machine
// the simulator runs; the registry drives it under its lock and keeps to
// itself the admission generation, the free list and the lock-free chunk
// loop. A worker that receives ok=false from a loop's scheduler is retired
// from that loop (ok=false is terminal per thread, the contract every
// scheduler satisfies); the loop's implicit barrier releases — Wait returns —
// when all fleet workers have retired from it, which by the schedulers'
// exactly-once coverage guarantee is exactly when all of its iterations have
// executed. Other loops are unaffected: their workers keep running.
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

	// gen counts admissions; workers snapshot it at pick time and re-enter
	// the policy when it changes, so a newly submitted loop is noticed even
	// by a worker in the middle of an unbounded single-loop burst. It sits
	// alone on its cache line: every worker loads it once per served chunk,
	// and letting Submit's increment share a line with the mutex word (or
	// anything else the control plane writes) would broadcast invalidations
	// into every burst loop in the fleet.
	_   [64]byte
	gen atomic.Uint64
	_   [56]byte

	mu    sync.Mutex
	cond  *sync.Cond
	fleet *fair.Fleet // guarded by mu
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
	// free holds released loops' schedulers and worker-indexed storage for
	// Submit to re-arm, oldest first, at most maxFree (guarded by mu).
	free []freeLoop
}

// maxFree bounds the free list: room for every loop a busy fleet keeps in
// flight to find its schedule there, while a fleet that stopped using a
// schedule holds only a few dozen of its schedulers until newer ones push
// them out.
const maxFree = 32

// schedKey is what a pooled scheduler must match to be re-armed for a
// request: the defaulted schedule's comparable fields. Canonical would do
// too, at the price of a formatted string per Submit.
type schedKey struct {
	kind         core.Kind
	chunk, major int64
	pct          float64
}

// keyOf returns s's free-list key, and ok=false for the offline-SF schedules,
// whose table is not part of the key and which are therefore never pooled.
func keyOf(s core.Schedule) (k schedKey, ok bool) {
	d := s.WithDefaults()
	return schedKey{d.Kind, d.Chunk, d.Major, d.Pct}, d.OfflineSF == nil
}

// freeLoop is one released loop's reusable storage: its scheduler, which owns
// the loop's sharded pool, and its ledger.
type freeLoop struct {
	key    schedKey
	sched  core.Resettable
	ledger *obs.Ledger
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
	// loop gets per-worker counter cells surfaced via LoopStats.Metrics,
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
	// Workers append to private per-worker tapes (the lock-free hot path
	// stays lock free) which are merged when the loop's barrier releases;
	// the result lands in LoopStats.Trace/Events/Phases and feeds
	// Registry.BuildRecord.
	Capture bool
	// CaptureMaxEvents, with Capture, bounds the loop's merged event
	// stream — the sampling recorder's reductions. A positive budget first
	// merges adjacent contiguous grants to the same worker
	// (trace.CompactEvents), which keeps every total (iterations, pool
	// accesses, execution time) and coarsens only grant granularity; then,
	// when the compacted stream still exceeds the budget, the first and the
	// last CaptureMaxEvents/2 events are retained and the middle is dropped
	// (trace.TrimToBudget), so the budget bounds what a record actually
	// stores. 0 means unbounded and uncompacted.
	CaptureMaxEvents int
}

// Loop is the handle of one admitted submission. Wait (or Done) observes
// the loop's own barrier: it releases when this loop's iterations are done,
// independent of the rest of the fleet's work.
type Loop struct {
	reg      *Registry
	id       uint64
	name     string
	weight   int
	n        int64
	schedule core.Schedule
	body     func(tid int, lo, hi int64)

	// slot is the loop's fleet slot until its barrier releases (guarded by
	// Registry.mu).
	slot int

	// sched and ledger are the loop's until its barrier releases; then
	// retire hands them to the free list and sets them to nil under
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
	// its ledger, whose tape tid is appended only by worker tid.
	capture tapes
	// captureMax is the sampled-capture budget applied when the tapes
	// merge (see LoopRequest.CaptureMaxEvents).
	captureMax int

	submitted time.Time
	latency   time.Duration
	stats     LoopStats
	done      chan struct{}
}

// ID returns the loop's admission-ordered identifier.
func (l *Loop) ID() uint64 { return l.id }

// Weight returns the loop's fairness weight.
func (l *Loop) Weight() int { return l.weight }

// Done returns a channel closed when the loop's barrier releases.
func (l *Loop) Done() <-chan struct{} { return l.done }

// Wait blocks until the loop's barrier releases and returns the loop's
// execution statistics.
func (l *Loop) Wait() LoopStats {
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
	// closed registry before it takes a free-list entry, so a refused
	// request takes no scheduler off the free list. The closed check at
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
		reg:       r,
		name:      req.Name,
		weight:    req.Weight,
		n:         req.N,
		schedule:  req.Schedule,
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
		l.capture = make(tapes, r.nthreads)
		tl, evs = l.capture, l.capture
		l.stats.Start = r.now()
		l.captureMax = req.CaptureMaxEvents
		// Pre-size the tapes from the schedule's chunk geometry so the
		// capturing hot path appends into reserved space instead of
		// growing its buffers mid-run.
		est := tapeEstimate(req.N, req.Schedule.Chunk, r.nthreads)
		for tid := range l.capture {
			l.capture[tid].Reserve(est)
		}
		if po, ok := l.sched.(core.PhaseObservable); ok {
			// The observer runs on the transition-owning worker and appends
			// to that worker's private tape, so the capture path inherits
			// the schedulers' lock freedom.
			po.SetPhaseObserver(func(ev core.PhaseEvent) {
				tp := &l.capture[ev.Tid].WorkerTape
				tp.Phases = append(tp.Phases, trace.PhaseEvent{TimeNs: ev.TimeNs,
					Tid: ev.Tid, Epoch: ev.Epoch, Kind: ev.Kind, SF: ev.SF})
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
	r.gen.Add(1)
	r.cond.Broadcast()
	r.mu.Unlock()
	return l, nil
}

// arm gives l a scheduler armed for its trip count and a ledger for Submit
// to arm: a released loop's, the scheduler re-armed through core.Resettable
// outside the lock, when the free list holds one of l's schedule, and new
// ones otherwise. A pooled schedule finds a closed registry in the critical
// section that takes the entry, and takes none.
func (r *Registry) arm(l *Loop) error {
	info := r.loopInfo(l.n)
	if key, ok := keyOf(l.schedule); ok {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return errClosed
		}
		fl, ok := r.takeFree(key)
		r.mu.Unlock()
		if ok {
			l.sched, l.ledger = fl.sched, fl.ledger
			return fl.sched.Reset(info)
		}
	}
	sched, err := l.schedule.Factory()(info)
	if err != nil {
		return err
	}
	l.sched, l.ledger = sched, new(obs.Ledger)
	return nil
}

// takeFree removes and returns the newest free-list entry for key (caller
// holds mu).
func (r *Registry) takeFree(key schedKey) (freeLoop, bool) {
	for i := len(r.free) - 1; i >= 0; i-- {
		if r.free[i].key == key {
			fl, last := r.free[i], len(r.free)-1
			copy(r.free[i:], r.free[i+1:])
			r.free[last] = freeLoop{}
			r.free = r.free[:last]
			return fl, true
		}
	}
	return freeLoop{}, false
}

// recycle hands a released loop's scheduler and worker-indexed storage to
// the free list, dropping the oldest entry when the list is full, and
// clears the loop's references to them (caller holds mu; every worker has
// retired from l).
func (r *Registry) recycle(l *Loop) {
	key, ok := keyOf(l.schedule)
	if rs, resettable := l.sched.(core.Resettable); ok && resettable {
		if len(r.free) == maxFree {
			copy(r.free, r.free[1:])
			r.free = r.free[:maxFree-1]
		}
		r.free = append(r.free, freeLoop{key, rs, l.ledger})
	}
	l.sched, l.ledger = nil, nil
}

// BuildRecord assembles a serializable run record from completed captured
// loops — the real-engine analog of the simulator's native recording. All
// loops must have been submitted to this registry with Capture set and have
// released their barriers. Events are merged into global time order (per-
// worker capture order breaks timestamp ties) and each event's abstract
// work units are derived from its measured wall time and the platform speed
// model, so internal/replay can re-execute and what-if the run in virtual
// time.
func (r *Registry) BuildRecord(loops ...*Loop) (*trace.Record, error) {
	if len(loops) == 0 {
		return nil, fmt.Errorf("rt: no loops to record")
	}
	rec := trace.NewRecorder()
	// The modeled per-worker speed converts measured wall time to work
	// units. Cluster occupancy is the full fleet, matching the simulator's
	// single-loop model where every worker is resident.
	occupancy := make([]int, len(r.platform.Clusters))
	for tid := 0; tid < r.nthreads; tid++ {
		occupancy[r.types[tid]]++
	}
	speed := make([]float64, r.nthreads)
	for tid := 0; tid < r.nthreads; tid++ {
		cpu := r.platform.CoreOf(tid, r.nthreads, r.binding)
		speed[tid] = r.platform.Speed(cpu, r.profile, occupancy[r.types[tid]])
	}
	startNs := int64(-1)
	var endNs int64
	for _, l := range loops {
		select {
		case <-l.done:
		default:
			return nil, fmt.Errorf("rt: loop %q has not released its barrier", l.name)
		}
		if l.capture == nil {
			return nil, fmt.Errorf("rt: loop %q was not submitted with Capture", l.name)
		}
		if startNs == -1 || l.stats.Start < startNs {
			startNs = l.stats.Start
		}
		if l.stats.End > endNs {
			endNs = l.stats.End
		}
	}
	policy := ""
	if len(loops) > 1 {
		policy = r.policy.Name()
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
	var nev, nph int
	for _, l := range loops {
		nev += len(l.stats.Events)
		nph += len(l.stats.Phases)
	}
	evs := make([]trace.ChunkEvent, 0, nev)
	phs := make([]trace.PhaseEvent, 0, nph)
	for _, l := range loops {
		idx := rec.AddLoop(trace.LoopRecord{
			Name:      l.name,
			NI:        l.n,
			Weight:    l.weight,
			Scheduler: l.stats.SchedulerName,
			Schedule:  l.schedule.Canonical(),
			Profile:   r.profile,
		})
		for _, ev := range l.stats.Events {
			ev.Loop = int32(idx)
			if !ev.Retire {
				ev.Cost = float64(ev.ExecNs) * speed[ev.Tid]
			}
			evs = append(evs, ev)
		}
		for _, p := range l.stats.Phases {
			p.Loop = idx
			phs = append(phs, p)
		}
	}
	slices.SortFunc(evs, eventOrder)
	rec.ReserveChunks(len(evs))
	for _, ev := range evs {
		rec.Chunk(ev)
	}
	// Per-loop phase streams are already sorted; interleave them
	// chronologically across loops (stable, to preserve each stream).
	slices.SortStableFunc(phs, phaseOrder)
	for _, p := range phs {
		rec.Phase(p)
	}
	// Final estimates go last: Phase() auto-derives mid-run SF samples, and
	// the serialized trajectory must stay chronological.
	for idx, l := range loops {
		if l.stats.SFEstimate != nil {
			rec.SFSample(trace.SFSample{TimeNs: l.stats.End, Loop: idx,
				SF: append([]float64(nil), l.stats.SFEstimate...)})
		}
	}
	if len(loops) == 1 {
		rec.AttachTimeline(loops[0].stats.Trace)
	}
	rec.EndRun(endNs - startNs)
	return rec.Record(), nil
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

// tapes is a captured loop's per-worker tapes, the timeline and the events
// of its ledger: the lane of worker tid appends to tape tid only. The pad
// keeps neighbouring workers' tape headers off each other's cache lines.
type tapes []struct {
	trace.WorkerTape
	_ [64]byte
}

func (t tapes) Add(tid int, start, end int64, s trace.State) {
	tp := &t[tid]
	tp.Intervals = append(tp.Intervals, trace.Interval{Start: start, End: end, State: s})
}

func (t tapes) Chunk(ev trace.ChunkEvent) {
	tp := &t[ev.Tid]
	tp.Events = append(tp.Events, ev)
}

// tapeEstimate guesses how many chunk grants one worker will capture for a
// loop of n iterations under the given chunk size (0 = schedule default,
// treated as 1, the paper's fine-grained default). The guess is clamped to
// [8, 1<<14] — an estimate only: workloads that blow past it just pay the
// append growth the reservation usually avoids, and the cap keeps a huge
// coarse loop from reserving megabytes per worker up front.
func tapeEstimate(n, chunk int64, nthreads int) int {
	return int(min(max(n/(max(chunk, 1)*int64(nthreads))+4, 8), 1<<14))
}

// worker is one fleet goroutine: pick a loop under the fairness policy,
// serve it for the granted burst of scheduler calls, repeat. The control
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
	// fleet is this worker's registry-lifetime counter cell, nil without
	// metrics: its time without a loop — between loops, and waiting out the
	// barrier of a loop it retired from — lands here, not on any tenant.
	var fleet *obs.Cell
	if r.metrics != nil {
		fleet = r.metrics.Cell(tid)
	}
	// wseq totally orders this worker's captured events across loops; the
	// wall clock alone cannot (two grants can land in the same nanosecond
	// tick on coarse timers), and replay needs the per-worker grant order.
	var wseq int64
	for {
		var pickStart int64
		if fleet != nil {
			pickStart = r.now()
		}
		l, burst, gen := r.pick(tid)
		nowNs := r.now()
		if fleet != nil {
			fleet.Idle(nowNs - pickStart)
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
			if served == burst || r.gen.Load() != gen {
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
// from worker tid, returning it with the policy's burst and the admission
// generation, or returns nil after Close once nothing is left for this
// worker. A lone runnable loop gets an unbounded burst from the built-in
// policies — the generation check in the worker loop restores fairness the
// moment a second loop arrives — so single-tenant execution pays one pick per
// loop, not one per chunk.
func (r *Registry) pick(tid int) (*Loop, int, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if slot, burst, ok := r.fleet.Grant(tid); ok {
			return r.slots[slot], burst, r.gen.Load()
		}
		if r.closed {
			return nil, 0, 0
		}
		r.cond.Wait()
	}
}

// retire records that worker tid has no more work in loop l. The last
// retirement releases the loop's barrier: the fleet drops the loop, the
// ledger's Release publishes its stats (under the registry lock, after every
// worker's retirement — the quiescent merge of obs's counter invariants), its
// scheduler and ledger go to the free list, and Done/Wait unblock.
func (r *Registry) retire(l *Loop, tid int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.fleet.Retire(l.slot, tid) {
		return
	}
	r.slots[l.slot] = nil
	l.latency = time.Since(l.submitted)
	l.ledger.Release(0, l.sched, &l.stats.Outcome)
	if l.metrics == nil && l.capture == nil {
		l.stats.End = 0 // its retirement stamps are stale (obs.Outcome)
	}
	if snap := l.stats.Metrics; snap != nil {
		r.retiredAgg = r.retiredAgg.Add(*snap)
	}
	if l.capture != nil {
		l.mergeCapture()
	}
	r.recycle(l)
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

// mergeCapture folds the per-worker tapes into the loop's stats once the
// barrier has released (runs under the registry lock, after every worker's
// retirement published its tape and the ledger's Release appended a team's
// Sync intervals).
func (l *Loop) mergeCapture() {
	var nev, nph int
	for tid := range l.capture {
		nev += len(l.capture[tid].Events)
		nph += len(l.capture[tid].Phases)
	}
	tr := trace.New(len(l.capture))
	evs := make([]trace.ChunkEvent, 0, nev)
	phs := make([]trace.PhaseEvent, 0, nph)
	for tid := range l.capture {
		tp := &l.capture[tid].WorkerTape
		for _, iv := range tp.Intervals {
			tr.Add(tid, iv.Start, iv.End, iv.State)
		}
		evs = append(evs, tp.Events...)
		phs = append(phs, tp.Phases...)
	}
	// Seq keeps the per-worker capture sequence (NOT reassigned here): it
	// is the tie-break token BuildRecord needs when merging several loops'
	// events whose wall-clock stamps collide; the Recorder assigns the
	// global sequence when a record is built.
	slices.SortFunc(evs, eventOrder)
	// The sampled-capture reductions run here, after the merge sort and
	// before publication: compaction needs the engines' event order, and
	// the budget must bound what the loop's stats (and any record built
	// from them) actually retain.
	if l.captureMax > 0 {
		evs = trace.TrimToBudget(trace.CompactEvents(evs), l.captureMax, l.captureMax/2)
	}
	slices.SortFunc(phs, phaseOrder)
	l.stats.Trace = tr
	l.stats.Events = evs
	l.stats.Phases = phs
}

// eventOrder orders captured events chronologically; timestamp ties break by
// thread, then by the per-worker capture sequence (the ground truth for one
// worker's grant order, which replay depends on).
func eventOrder(a, b trace.ChunkEvent) int {
	if a.TimeNs != b.TimeNs {
		return cmp.Compare(a.TimeNs, b.TimeNs)
	}
	if a.Tid != b.Tid {
		return cmp.Compare(a.Tid, b.Tid)
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// phaseOrder orders phase transitions chronologically, thread as the
// tie-break (per-loop streams are already internally ordered, so stable
// merges across loops preserve each stream).
func phaseOrder(a, b trace.PhaseEvent) int {
	if a.TimeNs != b.TimeNs {
		return cmp.Compare(a.TimeNs, b.TimeNs)
	}
	return cmp.Compare(a.Tid, b.Tid)
}
