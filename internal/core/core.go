// Package core implements the paper's primary contribution: the
// loop-scheduling methods for asymmetric multicore processors. It provides
// the conventional OpenMP schedules (static, dynamic, guided) as baselines
// plus the three Asymmetric Iteration Distribution (AID) methods of §4.2:
//
//   - AID-static: an asymmetry-aware replacement for static. A short
//     sampling phase estimates the loop's big-to-small speedup factor (SF)
//     online, then iterations are distributed unevenly in one final
//     assignment per thread — SF·k iterations to big-core threads and k to
//     small-core threads, where k = NI / (NB·SF + NS) (Fig. 3).
//   - AID-hybrid: AID-static applied to a configurable percentage of the
//     iterations; the remainder is scheduled dynamically to absorb residual
//     imbalance at the loop's end.
//   - AID-dynamic: a replacement for dynamic that alternates uneven "AID
//     phases" (big cores take R·M iterations, small cores M) with continuous
//     re-estimation of R via a smoothing factor, and switches to dynamic(m)
//     when few iterations remain (Fig. 5).
//
// The schedule vocabulary (schedule.go) selects among them as OpenMP selects
// a schedule: a Schedule is a Kind and its parameters, ParseSchedule reads
// the GOOMP_SCHEDULE text (the paper's OMP_SCHEDULE, §4.1) that -sched flags
// and run records carry, Canonical writes it, Factory builds for any engine.
//
// Schedulers are engine agnostic: every Next call receives the current
// timestamp from the caller, so the same implementation runs under the
// discrete-event simulator (virtual ns) and under real goroutines (monotonic
// ns). All scheduling state lives in shared structures mirroring libgomp's
// work_share; the entire hot path is lock free. Chunk removal is an atomic
// fetch-and-add on the caller's per-core-type sub-pool
// (internal/pool.ShardedWorkShare), so big- and small-core threads do not
// contend on a single counter cache line. Every scheduler that owns such a
// pool embeds one base (poolLoop), which cuts it for each loop. The three AID
// methods are two machines, AIDHybrid (AID-static and AID-hybrid) and
// AIDDynamic, which embed one skeleton (aidLoop): the per-thread state, the
// thread-to-type table that Migrate updates, the claim path and the Fig. 3
// sampling phase, written once. Its sampler's phase transitions ride a packed
// CAS epoch word (phaseWord) instead of a mutex: the thread reporting the last
// measurement of a phase owns the transition window and publishes the next
// phase in one atomic store.
package core

import (
	"fmt"
	"math"

	"repro/internal/pool"
)

// LoopInfo describes one parallel loop to a scheduler: the trip count, the
// worker-thread count, and the mapping from threads to core types. Core
// types are indexed with 0 = fastest (big) and NumTypes-1 = slowest (small),
// matching the generalization of AID-static to NC core types in §4.2.
type LoopInfo struct {
	// NI is the total number of iterations in the loop.
	NI int64
	// NThreads is the number of worker threads.
	NThreads int
	// NumTypes is the number of distinct core types on the platform.
	NumTypes int
	// TypeOf maps a thread ID to its core type. The runtime derives this
	// from the binding convention (BS for all AID variants, §4.3). It must
	// be stable for the duration of the loop (assumption (iii) of §4.2:
	// threads are not migrated between core types during a loop).
	TypeOf func(tid int) int
	// TypeDist, when non-nil, is the platform's topology distance matrix
	// between core types (amp.Platform.TypeDist): TypeDist[a][b] is 0 for
	// types in the same cluster and grows with distance (same package,
	// cross package). Schedulers that shard their pool per core type
	// install it so foreign steals pick the topologically nearest victim;
	// nil keeps the richest-only selection.
	TypeDist [][]int
}

// Validate checks the loop description.
func (li LoopInfo) Validate() error {
	if li.NI < 0 {
		return fmt.Errorf("core: negative trip count %d", li.NI)
	}
	if li.NThreads <= 0 {
		return fmt.Errorf("core: non-positive thread count %d", li.NThreads)
	}
	if li.NumTypes <= 0 || li.NumTypes > math.MaxInt32 {
		return fmt.Errorf("core: core type count %d out of [1,%d]", li.NumTypes, math.MaxInt32)
	}
	if li.TypeOf == nil {
		return fmt.Errorf("core: nil TypeOf mapping")
	}
	for tid := 0; tid < li.NThreads; tid++ {
		ct := li.TypeOf(tid)
		if ct < 0 || ct >= li.NumTypes {
			return fmt.Errorf("core: thread %d maps to core type %d, out of [0,%d)", tid, ct, li.NumTypes)
		}
	}
	if li.TypeDist != nil && len(li.TypeDist) < li.NumTypes {
		return fmt.Errorf("core: topology matrix covers %d types, platform has %d", len(li.TypeDist), li.NumTypes)
	}
	for a, row := range li.TypeDist[:min(len(li.TypeDist), li.NumTypes)] {
		if len(row) < li.NumTypes {
			return fmt.Errorf("core: topology matrix row %d covers %d types, platform has %d", a, len(row), li.NumTypes)
		}
	}
	return nil
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

// typeSlice snapshots the thread-to-core-type mapping into buf's storage.
func (li LoopInfo) typeSlice(buf []int) []int {
	types := sized(buf, li.NThreads)
	for tid := range types {
		types[tid] = li.TypeOf(tid)
	}
	return types
}

// OriginShared marks an Assign whose iterations came from a type-shared
// pool structure (work-steal's mutex-protected ranges) rather than a
// per-core-type shard: there is no per-type line to charge, so the cost
// model attributes contention globally and prices locality at the base tier.
const OriginShared = -1

// Assign is the result of one scheduler invocation: a half-open iteration
// range plus the runtime-cost metadata the simulator charges for the call.
//
// It is returned by value on every chunk, in both engines, so its shape is
// on the hot path. The Go compiler keeps a value in registers only when its
// type is at most 32 bytes and, for a struct, has at most 4 fields, each held
// to the same rule (cmd/compile/internal/ssa.TypeOK, CanSSA in current
// releases). Anything larger lives in memory: every copy is a block move, and
// the `return *asg` that ends most schedulers' Next reloads the struct right
// after stores to its fields. The byte count alone does not decide it. An
// interface call into one helper ending in `return *p` costs 19-24 ns with a
// seven-field 56-byte result, 20-26 ns with a five-field 24-byte one and 4-7 ns
// with a four-field 32-byte one (go1.24, two-CPU Xeon host).
//
// Assign was that seven-field 56-byte struct, and TestAssignLayout pinned its
// size: one bool field more, nothing else changed, had taken a dynamic,1
// registry chunk from 80-96 to 108-112 ns. Regrouped as two bounds and two
// embedded 8-byte structs, whose fields read as Assign's own (asg.Origin,
// asg.CreditClaimed), it fits the rule, and Next cost, in medians of five
// traced bench passes per side: dynamic,1 37 -> 30 ns, aid-hybrid,80,1
// 67 -> 23 ns, aid-static,8 210 -> 82 ns and aid-dynamic,1,5 321 -> 154 ns;
// the simulator's host cost per chunk went from 68 to 41 ns. TestAssignLayout
// now fails on any layout that breaks the rule. A field more must fit into
// one of the embedded structs or be measured first; a per-thread answer such
// as ReadsClock costs the chunk nothing. The narrow fields are bounded where
// they are produced, as each one says.
type Assign struct {
	// Lo, Hi delimit the assigned iterations [Lo, Hi).
	Lo, Hi int64
	AssignCost
	AssignCredit
}

// AssignCost is the part of an Assign the simulator prices: where the
// iterations came from and what the call did to get them.
type AssignCost struct {
	// Origin is the provenance of the assigned range: the core type whose
	// shard (or static share) the iterations came from, or OriginShared
	// for ranges from a type-shared pool line. The simulator charges
	// ContentionNs by the occupancy of the Origin shard and tiers the
	// locality penalty by the topology distance between the executing
	// thread's type and Origin. A core type fits: LoopInfo.Validate refuses
	// more than math.MaxInt32 types, and the pool tags ranges in int32.
	Origin int32
	// PoolAccesses counts atomic operations on the shared iteration pool
	// performed during this call (0 for compiled-in static distribution,
	// 1 for a dynamic steal, 1+retries for a guided CAS). Retries have no
	// bound, so the count saturates at math.MaxInt16 (addAccesses).
	PoolAccesses int16
	// Timestamps counts clock reads performed during this call (the
	// sampling machinery of the AID methods): at most one per call for every
	// scheduler in this package.
	Timestamps int16
}

// AssignCredit is the batched credit path's pool traffic for one call, in
// iterations: CreditClaimed is what the call newly removed from the pool
// (served plus banked as thread-local credit, pool.CreditSteal). It is zero
// on the strict claim paths and on thread-local credit draws — which is
// exactly what the observability layer counts it to see. One credit
// acquisition holds at most pool.MaxCredit iterations, so it fits in an
// int32.
type AssignCredit struct {
	CreditClaimed int32
}

// accesses narrows a pool-access count to Assign's field, saturating at
// math.MaxInt16 instead of wrapping.
func accesses(n int) int16 { return int16(min(n, math.MaxInt16)) }

// addAccesses adds n pool accesses to the call's count, saturating.
func (c *AssignCost) addAccesses(n int) { c.PoolAccesses = accesses(int(c.PoolAccesses) + n) }

// N returns the number of iterations in the assignment.
func (a Assign) N() int64 { return a.Hi - a.Lo }

// Scheduler hands out iteration chunks to worker threads. Implementations
// must be safe for concurrent use by NThreads goroutines. A Scheduler
// schedules exactly one execution of one loop; one that also implements
// Resettable can then be re-armed for another.
type Scheduler interface {
	// Next returns the next chunk for thread tid given the current time in
	// nanoseconds. ok=false means no work remains for this thread and it
	// should proceed to the loop's implicit barrier.
	//
	// Time enters only as differences. An implementation may subtract one
	// nowNs from another (a sampling window, the length of a phase) and hand
	// nowNs on unchanged (PhaseEvent.TimeNs); no decision may depend on nowNs
	// itself — its size, its parity, its conversion to float64. Where the
	// clock starts is the engine's business: rt reads a monotonic clock, sim
	// counts from wherever its caller says, and sim.RunProgram relies on an
	// execution being the same wherever it starts ("Repetitions" in
	// internal/sim; sim.TestRunTimeTranslation holds every schedule family
	// to it at starts up to 2^61). An engine that pays for its clock may ask
	// ReadsClock whether thread tid's remaining calls need a fresh nowNs at
	// all, and once told no, hand them any nowNs, a stale one included.
	Next(tid int, nowNs int64) (Assign, bool)
	// Name identifies the scheduling method (for reports).
	Name() string
}

// ReadsClock reports whether thread tid's remaining Next calls in this
// execution of s may depend on their nowNs argument. Where it is false an
// engine may hand those calls any nowNs, a stale one included, and skip the
// clock read that would have produced it. The answer is monotone: once false
// for a thread it stays false until Reset, so an engine may stop asking.
//
//   - static, static-chunked, dynamic, guided and work-steal, whose Next names
//     the parameter _: false throughout.
//   - AID-static and AID-hybrid: true until the thread has filed its
//     sampling measurement, false from its sampling wait on: neither the wait
//     nor the final allotment nor the drain after it reads nowNs.
//   - AID-dynamic: true until the thread is past its last sampling point (the
//     tail switch or a pool that drained under its allotment), false for the
//     drain after it, which only mops up leftovers.
//   - Every other scheduler, whatever its package, wrappers included: true.
//
// While Next calls may run, only thread tid may ask about tid, between its own
// calls: the answer reads the thread's own state, which nothing else writes.
// TestClockFreeSchedulersIgnoreNow holds every scheduler of this package to
// these answers.
func ReadsClock(s Scheduler, tid int) bool {
	switch s := s.(type) {
	case *Static, *StaticChunked, *Dynamic, *Guided, *WorkSteal:
		return false
	case *AIDHybrid:
		return s.readsClock(tid)
	case *AIDDynamic:
		return s.readsClock(tid)
	}
	return true
}

// Resettable is implemented by every scheduler of this package: Reset re-arms
// the scheduler for one execution of the loop info describes, in place — the
// pool is re-cut and all per-thread and per-phase state starts over, in the
// storage the previous execution used. Each constructor is an allocation
// followed by Reset, so a re-armed scheduler and a new one are the same
// scheduler: they hand out the same chunks at the same times. Together with
// Next's rule on time that makes an execution after Reset, given the same info
// and the same calls at the same offsets from its start, the previous one
// translated in time: nothing an execution learned (an SF estimate, R, a CV
// verdict) reaches the next. sim.RunProgram accounts a loop's repetitions from
// its first execution on the strength of that, and
// exps.TestRunProgramDifferential holds it to the figures' programs; a Reset
// that keeps a piece of the previous execution must fail that test first, and
// needs RunProgram changed with it.
//
// The contract:
//
//   - Quiescent only. No Next (or Migrate) call of the previous execution
//     may still be running or be made afterwards: Reset is not synchronized
//     with them. The caller's own join (the simulator's event loop, a
//     barrier every worker has passed) provides that.
//   - Configuration survives: the constructor's parameters (chunks, pct, an
//     offline SF table) and the settings made through SetAblation carry
//     over. info may differ from the previous one in every
//     field; a trip count, thread count or type count that changed re-sizes
//     what depends on it.
//   - Observers do not survive. A phase observer belongs to the execution
//     that installed it, so Reset drops it and the engine installs the next
//     one (SetPhaseObserver, before the first Next, as always).
//   - An error (info fails Validate, or does not fit the configuration)
//     leaves the scheduler unusable until a Reset succeeds.
//
// Engines that run loops one after another use it to build one scheduler for
// many executions: sim.RunProgram builds one per program (one per loop phase
// under a per-loop factory) instead of one per execution. Schedulers from
// other packages need not implement it and are then built anew each time.
type Resettable interface {
	Scheduler
	Reset(info LoopInfo) error
}

// loopBase is what every scheduler of this package embeds: its loop and, if
// Schedule.Factory built it and it is in use, its key's spareList, which
// Recycle pushes it onto. home is nil while it is a spare.
type loopBase struct {
	info LoopInfo
	home *spareList
}

func (b *loopBase) base() *loopBase { return b }

// keyed is a scheduler of this package, which Recycle can hand back.
type keyed interface {
	Resettable
	base() *loopBase
}

// armed is every constructor's end: s, its configuration set, armed for info
// by its own Reset, or Reset's error.
func armed[S Resettable](s S, info LoopInfo) (S, error) {
	if err := s.Reset(info); err != nil {
		var none S
		return none, err
	}
	return s, nil
}

// poolLoop is what every scheduler that owns a sharded pool embeds (Dynamic,
// Guided and both AID machines): its loop, the pool, and the threads per core
// type (N_t in §4.2) that partition it.
type poolLoop struct {
	loopBase
	counts []int
	ws     *pool.ShardedWorkShare
}

// cut arms the pool base for info (info valid): the loop, its thread count
// per core type, and one shard per core type sized by that count, with the
// loop's topology matrix installed (nil keeps the richest-only victim
// selection). Every slice keeps its storage when that is large enough.
func (p *poolLoop) cut(info LoopInfo) {
	p.info = info
	p.counts = sized(p.counts, info.NumTypes)
	for tid := 0; tid < info.NThreads; tid++ {
		p.counts[info.TypeOf(tid)]++
	}
	if p.ws == nil {
		p.ws = new(pool.ShardedWorkShare)
	}
	p.ws.Reset(info.NI, p.counts)
	p.ws.SetTopology(info.TypeDist)
}

// --- static ---

// Static implements the OpenMP static schedule without a chunk: the
// iteration space is split into NThreads contiguous blocks of near-equal
// size, assigned by thread ID. GCC compiles this distribution directly into
// the program (§4.1), so it costs no runtime pool accesses at all.
type Static struct {
	loopBase
	done []bool
}

// NewStatic returns a static scheduler for the loop.
func NewStatic(info LoopInfo) (*Static, error) { return armed(&Static{}, info) }

// Reset implements Resettable.
func (s *Static) Reset(info LoopInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	s.info = info
	s.done = sized(s.done, info.NThreads)
	return nil
}

// Name implements Scheduler.
func (s *Static) Name() string { return "static" }

// Range returns thread tid's precomputed block, matching libgomp: the first
// NI%N threads receive ceil(NI/N) iterations, the rest floor(NI/N).
func (s *Static) Range(tid int) (lo, hi int64) {
	n := int64(s.info.NThreads)
	q := s.info.NI / n
	r := s.info.NI % n
	t := int64(tid)
	if t < r {
		lo = t * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (t-r)*q
	return lo, lo + q
}

// Next implements Scheduler. Each thread receives its block exactly once.
func (s *Static) Next(tid int, _ int64) (Assign, bool) {
	if s.done[tid] {
		return Assign{}, false
	}
	s.done[tid] = true
	lo, hi := s.Range(tid)
	if lo >= hi {
		return Assign{}, false
	}
	return Assign{Lo: lo, Hi: hi, AssignCost: AssignCost{Origin: int32(s.info.TypeOf(tid))}}, true
}

// --- static with chunk ---

// StaticChunked implements the OpenMP static,chunk schedule: blocks of the
// given chunk size are assigned to threads round-robin. Like Static, the
// distribution is compiled in and costs no pool accesses.
type StaticChunked struct {
	loopBase
	chunk int64
	pos   []int64 // next block start per thread
}

// NewStaticChunked returns a static,chunk scheduler.
func NewStaticChunked(info LoopInfo, chunk int64) (*StaticChunked, error) {
	if chunk <= 0 {
		return nil, fmt.Errorf("core: static chunk must be positive, got %d", chunk)
	}
	return armed(&StaticChunked{chunk: chunk}, info)
}

// Reset implements Resettable.
func (s *StaticChunked) Reset(info LoopInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	s.info = info
	s.pos = sized(s.pos, info.NThreads)
	for tid := range s.pos {
		s.pos[tid] = s.after(0, int64(tid))
	}
	return nil
}

// Name implements Scheduler.
func (s *StaticChunked) Name() string { return "static-chunked" }

// after returns lo + k·chunk, the start of the block k blocks after the one
// at lo, saturating at NI (no further block) instead of wrapping: a chunk
// the parser accepts may exceed NI by any amount.
func (s *StaticChunked) after(lo, k int64) int64 {
	if k > 0 && s.chunk > (s.info.NI-lo)/k {
		return s.info.NI
	}
	return lo + k*s.chunk
}

// Next implements Scheduler.
func (s *StaticChunked) Next(tid int, _ int64) (Assign, bool) {
	lo := s.pos[tid]
	if lo >= s.info.NI {
		return Assign{}, false
	}
	hi := s.after(lo, 1)
	s.pos[tid] = s.after(lo, int64(s.info.NThreads))
	return Assign{Lo: lo, Hi: hi, AssignCost: AssignCost{Origin: int32(s.info.TypeOf(tid))}}, true
}

// --- dynamic ---

// Dynamic implements the OpenMP dynamic schedule: threads repeatedly steal
// `chunk` iterations from the shared pool with an atomic fetch-and-add,
// mirroring gomp_iter_dynamic_next (§4.2). The pool is sharded per core
// type, so the fetch-and-add lands on the caller's home sub-pool and only
// spills to a foreign shard when the home shard drains. Every call claims
// at most chunk iterations (strict OpenMP semantics — no handoff batching).
// The default chunk is 1.
type Dynamic struct {
	poolLoop
	chunk int64
	types []int
}

// NewDynamic returns a dynamic scheduler with the given chunk.
func NewDynamic(info LoopInfo, chunk int64) (*Dynamic, error) {
	if chunk <= 0 {
		return nil, fmt.Errorf("core: dynamic chunk must be positive, got %d", chunk)
	}
	return armed(&Dynamic{chunk: chunk}, info)
}

// Reset implements Resettable.
func (d *Dynamic) Reset(info LoopInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	d.cut(info)
	d.types = info.typeSlice(d.types)
	return nil
}

// Name implements Scheduler.
func (d *Dynamic) Name() string { return "dynamic" }

// Chunk returns the configured chunk size.
func (d *Dynamic) Chunk() int64 { return d.chunk }

// Next implements Scheduler.
func (d *Dynamic) Next(tid int, _ int64) (Assign, bool) {
	lo, hi, from, acc, ok := d.ws.TryStealBatchFrom(d.types[tid], d.chunk, d.chunk)
	if !ok {
		return Assign{AssignCost: AssignCost{Origin: int32(d.types[tid]), PoolAccesses: accesses(acc)}}, false
	}
	return Assign{Lo: lo, Hi: hi, AssignCost: AssignCost{Origin: int32(from), PoolAccesses: accesses(acc)}}, true
}

// --- guided ---

// Guided implements the OpenMP guided schedule: the chunk starts large and
// decays as the pool drains — each steal takes max(remaining/NThreads,
// minChunk) iterations. The paper evaluated guided and found it inferior to
// both static and dynamic on AMPs (§5: +44%/+65% average completion time);
// it is provided as a baseline for that comparison.
type Guided struct {
	poolLoop
	minChunk int64
	types    []int
}

// NewGuided returns a guided scheduler with the given minimum chunk.
func NewGuided(info LoopInfo, minChunk int64) (*Guided, error) {
	if minChunk <= 0 {
		return nil, fmt.Errorf("core: guided min chunk must be positive, got %d", minChunk)
	}
	return armed(&Guided{minChunk: minChunk}, info)
}

// Reset implements Resettable.
func (g *Guided) Reset(info LoopInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	g.cut(info)
	g.types = info.typeSlice(g.types)
	return nil
}

// Name implements Scheduler.
func (g *Guided) Name() string { return "guided" }

// Next implements Scheduler.
func (g *Guided) Next(tid int, _ int64) (Assign, bool) {
	n := int64(g.info.NThreads)
	lo, hi, from, acc, ok := g.ws.TryStealFuncFrom(g.types[tid], func(rem int64) int64 {
		size := rem / n
		if size < g.minChunk {
			size = g.minChunk
		}
		return size
	})
	if !ok {
		return Assign{AssignCost: AssignCost{Origin: int32(g.types[tid]), PoolAccesses: accesses(acc)}}, false
	}
	return Assign{Lo: lo, Hi: hi, AssignCost: AssignCost{Origin: int32(from), PoolAccesses: accesses(acc)}}, true
}

// Migratable is implemented by schedulers that can adapt when the OS
// migrates a worker thread between cores of different types mid-loop. The
// paper proposes exactly this OS-runtime interaction for multi-application
// scenarios (§4.3): "the runtime system would also greatly benefit from
// notifications from the OS when an application thread is migrated between
// cores of different types ... That would give the runtime system
// opportunities to readjust the distribution of iterations dynamically."
// AIDHybrid (and so AID-static) and AIDDynamic implement it.
type Migratable interface {
	// Migrate tells the scheduler that thread tid now runs on a core of
	// type newType, effective at time nowNs. Out-of-range types are
	// ignored (defensive: a racing notification must not corrupt state).
	Migrate(tid, newType int, nowNs int64)
}

// SFEstimator is implemented by schedulers that derive an online estimate
// of the per-core-type speedup factors (AID-static/hybrid's SF, AID-
// dynamic's R). Both execution engines surface the estimate after a loop,
// which lets the cross-engine conformance harness assert that the
// simulator and the real-goroutine runtime converge to compatible values.
// ok is false while the estimate is not available yet. SFEstimate is safe
// to poll from any goroutine mid-run: the implementations publish their
// tables through atomics (the epoch word, a pointer swap), never in place.
type SFEstimator interface {
	SFEstimate() (sf []float64, ok bool)
}
