package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/pool"
)

// threadState enumerates the per-thread states of the AID state machines
// (Figs. 3 and 5 of the paper).
type threadState int

const (
	stNew threadState = iota
	stSampling
	stSamplingWait
	stAID
	stSamplingWait2 // AID-dynamic: waiting for the next AID phase to open
	stDrain         // past the final AID assignment; mop up leftovers dynamically
)

// String implements fmt.Stringer for test diagnostics.
func (s threadState) String() string {
	switch s {
	case stNew:
		return "NEW"
	case stSampling:
		return "SAMPLING"
	case stSamplingWait:
		return "SAMPLING_WAIT"
	case stAID:
		return "AID"
	case stSamplingWait2:
		return "SAMPLING_WAIT2"
	case stDrain:
		return "DRAIN"
	}
	return fmt.Sprintf("threadState(%d)", int(s))
}

// perThread is the bookkeeping each AID scheduler keeps per worker. Entries
// are only ever touched by their owning thread, so no synchronization is
// needed; the trailing pad keeps neighbouring entries off each other's
// cache lines.
type perThread struct {
	state threadState
	window
	claimState
	_ [64]byte
}

// resetThreads returns th with n entries, each as a new loop finds it, in th's
// storage (the stashes' included) when that is large enough.
func resetThreads(th []perThread, n int) []perThread {
	if cap(th) < n {
		return make([]perThread, n)
	}
	th = th[:n]
	for i := range th {
		th[i].state, th[i].window = stNew, window{}
		th[i].claimState.reset()
	}
	return th
}

// AIDHybrid implements both AID-static and AID-hybrid (§4.2): AID-static is
// the pct=1.0 special case. The state machine follows Fig. 3:
//
//	SAMPLING --(not last)--> SAMPLING_WAIT --(all sampled)--> AID
//	SAMPLING --(last: compute SF, k)-----------------------> AID
//
// During SAMPLING and SAMPLING_WAIT every thread steals `chunk` iterations
// per call, so no thread idles while the SF estimate converges. In the AID
// state each thread receives one final assignment: SF_j·k−δ_i iterations for
// a thread on core type j (k for the slowest type), where
// k = pct·NI / Σ_t N_t·SF_t. With pct < 1, the remaining iterations stay in
// the pool and are drained dynamically with chunk-size steals, balancing the
// loop tail at the price of extra pool accesses (Fig. 4b).
//
// The scheduler is fully lock free: chunk removal is a fetch-and-add on the
// caller's per-core-type shard (internal/pool.ShardedWorkShare), and the
// sampling→AID transition is serialized by a packed CAS epoch word — the
// last thread to report a sample owns the transition window and publishes
// SF and k by advancing the epoch.
//
// If the supplied offline SF table is non-nil, the sampling phase is skipped
// entirely and the distribution uses the given per-type SF values — the
// AID-static(offline-SF) variant of §5C.
type AIDHybrid struct {
	info    LoopInfo
	chunk   int64 // sampling and drain chunk (paper default: 1)
	pct     float64
	static  bool      // report as AID-static
	offline []float64 // the offline-SF variant's table; nil samples online

	ws *pool.ShardedWorkShare

	th     []perThread
	types  []atomic.Int32 // per-thread core type; mutable via Migrate (§4.3)
	counts []int          // threads per core type (N_t in §4.2), as the loop started

	// smp's epoch 0 is the sampling phase; epoch 1 means SF and k are
	// published. sf and k are written only inside the transition window
	// (or by Reset for the offline variant).
	smp      sampler
	sf       []float64 // per core type, relative to the slowest sampled type
	k        float64
	assigned atomic.Int32

	// reweight re-partitions the pool under SF-proportional per-type
	// weights inside the sampling→AID transition window (see SetReweight).
	reweight bool

	// observe, when non-nil, receives the sampling→AID transition (the
	// decision-capture hook of the record & replay subsystem). Set before
	// the first Next call; invoked inside the transition window.
	observe func(PhaseEvent)
}

// SetReweight enables SF-aware pool re-partitioning: once the sampling
// phase publishes the SF estimate, the pool's unclaimed iterations are
// re-cut so each core type's home shards hold a share proportional to its
// consumption rate N_t·SF_t — big-core threads then serve their larger
// allotments and the (1−pct) dynamic tail from home shards instead of
// paying foreign-shard handoff traffic. Off by default (the paper's
// partition is per-type thread counts); meaningful for pct < 1, where the
// tail is drained chunk-wise. Must be called before the first Next.
func (a *AIDHybrid) SetReweight(on bool) { a.reweight = on }

// SetPhaseObserver implements PhaseObservable.
func (a *AIDHybrid) SetPhaseObserver(fn func(PhaseEvent)) { a.observe = fn }

// NewAIDStatic returns an AID-static scheduler with the given sampling
// chunk. The paper uses chunk 1 in all experiments (§5A).
func NewAIDStatic(info LoopInfo, chunk int64) (*AIDHybrid, error) {
	return newAIDHybrid(info, &AIDHybrid{chunk: chunk, pct: 1.0, static: true})
}

// NewAIDStaticOffline returns the AID-static(offline-SF) variant: sampling
// is skipped and the per-core-type speedup factors sf (indexed by core type,
// relative to the slowest type, so sf[NumTypes-1] should be 1) are used
// directly. The paper uses this variant to quantify the impact of online SF
// estimation errors (§5C, Fig. 9).
func NewAIDStaticOffline(info LoopInfo, chunk int64, sf []float64) (*AIDHybrid, error) {
	for i, v := range sf {
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("core: offline SF[%d] = %v must be positive and finite", i, v)
		}
	}
	// Non-nil even when empty: an empty table must fail Reset's length check,
	// not select online sampling.
	return newAIDHybrid(info, &AIDHybrid{chunk: chunk, pct: 1.0, static: true, offline: append([]float64{}, sf...)})
}

// NewAIDHybrid returns an AID-hybrid scheduler distributing pct (in (0,1])
// of the iterations via asymmetric distribution and the rest dynamically.
// The paper's sensitivity study selects pct=0.80 as the safe default (§5B).
func NewAIDHybrid(info LoopInfo, chunk int64, pct float64) (*AIDHybrid, error) {
	return newAIDHybrid(info, &AIDHybrid{chunk: chunk, pct: pct})
}

// newAIDHybrid checks a's configuration, gives it its pool and arms it for
// the loop.
func newAIDHybrid(info LoopInfo, a *AIDHybrid) (*AIDHybrid, error) {
	if a.chunk <= 0 {
		return nil, fmt.Errorf("core: AID sampling chunk must be positive, got %d", a.chunk)
	}
	if !(a.pct > 0 && a.pct <= 1) {
		return nil, fmt.Errorf("core: AID-hybrid percentage %v out of (0,1]", a.pct)
	}
	a.ws = new(pool.ShardedWorkShare)
	if err := a.Reset(info); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset implements Resettable. The offline-SF variant publishes its table
// again, for the new loop's trip count.
func (a *AIDHybrid) Reset(info LoopInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	if a.offline != nil && len(a.offline) != info.NumTypes {
		return fmt.Errorf("core: offline SF table has %d entries, platform has %d core types", len(a.offline), info.NumTypes)
	}
	a.info = info
	a.counts = info.typeCounts(a.counts)
	info.resetPool(a.ws, a.counts)
	a.th = resetThreads(a.th, info.NThreads)
	a.types = info.atomicTypes(a.types)
	a.sf, a.k = sized(a.sf, info.NumTypes), 0
	a.assigned.Store(0)
	a.observe = nil
	if a.offline == nil {
		a.smp.reset(info, 0)
		return nil
	}
	copy(a.sf, a.offline)
	a.k = allotmentK(a.counts, a.sf, a.pct, a.info.NI)
	a.smp.reset(info, 1) // SF published; no sampling phase
	return nil
}

// Name implements Scheduler.
func (a *AIDHybrid) Name() string {
	if a.static {
		return "aid-static"
	}
	return "aid-hybrid"
}

// Pct returns the fraction distributed asymmetrically.
func (a *AIDHybrid) Pct() float64 { return a.pct }

// PoolReweights implements ReweightCounter.
func (a *AIDHybrid) PoolReweights() int64 { return a.ws.Reweights() }

// SFEstimate returns the speedup factors the scheduler derived (or was
// given), indexed by core type, and ok=false when sampling has not finished
// yet. Implements SFEstimator; exposed for the Fig. 9c experiment, the
// cross-engine conformance harness and tests.
func (a *AIDHybrid) SFEstimate() (sf []float64, ok bool) {
	if a.smp.epoch() == 0 {
		return nil, false
	}
	return append([]float64(nil), a.sf...), true
}

// SFLiveView implements SFLiveViewer: the published table is only ever
// replaced wholesale inside the single-threaded transition window (or set
// once by the offline constructor) before the epoch advances, so returning
// it without a copy is safe for concurrent readers.
func (a *AIDHybrid) SFLiveView() []float64 {
	if a.smp.epoch() == 0 {
		return nil
	}
	return a.sf
}

// take serves thread tid up to n iterations via its claimState, on the
// batched credit path from the thread's current home shard: the sampling
// and drain states draw most chunks from a thread-local credit instead of
// paying one pool RMW per chunk.
func (a *AIDHybrid) take(tid int, st *perThread, n int64, asg *Assign) (Assign, bool) {
	return st.takeCredit(a.ws, int(a.types[tid].Load()), n, asg)
}

// allotmentK evaluates k = pct·NI / Σ_t N_t·SF_t (§4.2, generalized to NC
// core types): counts holds N_t, and 0 means no type can take a share.
func allotmentK(counts []int, sf []float64, pct float64, ni int64) float64 {
	denom := 0.0
	for t, n := range counts {
		denom += float64(n) * sf[t]
	}
	if denom <= 0 {
		return 0
	}
	return pct * float64(ni) / denom
}

// finalAssign hands thread tid its single AID allotment: SF_j·k − δ_i
// iterations, claimed across shards so a share larger than the home shard
// is not truncated. Under pure AID-static the last thread to be assigned
// takes whatever remains instead, so SF rounding never orphans iterations.
func (a *AIDHybrid) finalAssign(tid int, st *perThread, asg *Assign) (Assign, bool) {
	st.state = stDrain
	home := int(a.types[tid].Load())
	asg.Origin = int32(home) // drained-pool probes are charged to the home line
	claimed := int64(0)
	if want := int64(math.Round(a.sf[home]*a.k)) - st.delta; want > 0 {
		rs, acc := st.claimSpan(a.ws, home, want)
		asg.addAccesses(acc)
		claimed += spanN(rs)
	}
	// Claim order is load-bearing without a lock: each thread claims its
	// own span BEFORE announcing itself assigned, so when the last
	// announcement lands every share has already left the pool and the
	// residue drain below can only ever take SF-rounding leftovers —
	// never a peer's allotment whose steal has not executed yet.
	if a.static && int(a.assigned.Add(1)) == a.info.NThreads {
		drained, acc := a.ws.DrainAll(home)
		asg.addAccesses(acc)
		claimed += spanN(drained)
		st.pending = append(st.pending, drained...)
	}
	st.delta += claimed
	if claimed == 0 {
		if asg.PoolAccesses > 0 && len(st.pending) == 0 && st.credit.Empty() {
			// The span/drain probes above already observed the drained pool
			// and the thread owns nothing: retire without a further access.
			return st.serve(asg)
		}
		// Fall through to the drain path, which serves the stash AND the
		// thread's credit — a thread must never retire while it still owns
		// iterations (want <= 0 lands here too: the thread covered its
		// share during sampling and mops up leftovers, if any).
		return a.take(tid, st, a.chunk, asg)
	}
	return st.serve(asg)
}

// Migrate implements Migratable (§4.3): the runtime is told that thread tid
// now runs on a core of newType. If the thread has not received its final
// AID allotment yet, the new type is used for it; after the final allotment,
// AID-static has no rebalancing mechanism (the paper suggests combining it
// with work stealing for that case) — the drain state's dynamic fallback is
// the only relief.
func (a *AIDHybrid) Migrate(tid, newType int, _ int64) {
	if newType >= 0 && newType < a.info.NumTypes {
		a.types[tid].Store(int32(newType))
	}
}

// readsClock answers ReadsClock: the drain after the final allotment is the
// only state nowNs can no longer reach, and no transition leaves it.
func (a *AIDHybrid) readsClock(tid int) bool { return a.th[tid].state != stDrain }

// Next implements Scheduler, realizing the Fig. 3 state machine.
func (a *AIDHybrid) Next(tid int, nowNs int64) (Assign, bool) {
	st := &a.th[tid]
	asg := &Assign{}
	switch st.state {
	case stNew:
		a.smp.open(&st.window, nowNs, asg)
		if a.smp.epoch() > 0 {
			// Offline-SF variant: no sampling phase at all (§5C).
			return a.finalAssign(tid, st, asg)
		}
		st.state = stSampling
		return a.take(tid, st, a.chunk, asg)

	case stSampling:
		// The chunk just finished is this thread's sampling phase.
		if a.smp.close(&st.window, int(a.types[tid].Load()), nowNs, st.lastN, sampleScale, asg) {
			// Last sampler: single-threaded transition window.
			a.sf = a.smp.sampledSF(a.sf)
			a.k = allotmentK(a.counts, a.sf, a.pct, a.info.NI)
			if a.reweight && a.pct < 1 {
				// Re-cut the pool before the final assignments claim
				// their spans: the drain tail then serves each type
				// from SF-proportional home shards.
				if w := sfWeights(a.counts, a.sf); w != nil && a.ws.NumTypes() == len(w) {
					a.ws.Reweight(w)
				}
			}
			if a.observe != nil {
				a.observe(PhaseEvent{TimeNs: nowNs, Tid: tid, Epoch: 1,
					Kind: PhaseSFPublished, SF: append([]float64(nil), a.sf...)})
			}
			a.smp.advance(1)
			return a.finalAssign(tid, st, asg)
		}
		st.state = stSamplingWait
		return a.take(tid, st, a.chunk, asg)

	case stSamplingWait:
		if a.smp.epoch() > 0 {
			return a.finalAssign(tid, st, asg)
		}
		return a.take(tid, st, a.chunk, asg)

	case stDrain:
		// Past the final assignment: under AID-hybrid this schedules the
		// remaining (1-pct)·NI iterations dynamically; under AID-static it
		// only fires if SF rounding left a residue.
		return a.take(tid, st, a.chunk, asg)
	}
	panic(fmt.Sprintf("core: thread %d in invalid state %v", tid, st.state))
}
