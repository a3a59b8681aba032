package core

import (
	"fmt"
	"math"
	"sync/atomic"
)

// AIDHybrid implements both AID-static and AID-hybrid (§4.2): AID-static is
// the pct=1.0 special case. The state machine follows Fig. 3: the sampling
// phase of the aidLoop it embeds, which AIDDynamic embeds too, then one
// final assignment per thread. During sampling and the sampling wait every
// thread steals `chunk` iterations per call, so no thread idles while the SF
// estimate converges. The last sampler computes SF and k. Each thread then
// receives one final assignment: SF_j·k−δ_i iterations for a thread on core
// type j (k for the slowest type), where k = pct·NI / Σ_t N_t·SF_t. With
// pct < 1, the remaining iterations stay in the pool and are drained
// dynamically with chunk-size steals, balancing the loop tail at the price
// of extra pool accesses (Fig. 4b).
//
// The scheduler is fully lock free: chunk removal is a fetch-and-add on the
// caller's per-core-type shard (internal/pool.ShardedWorkShare, cut by the
// pool base, poolLoop), and the sampling→AID transition is serialized by the
// sampler's packed CAS epoch word — the last thread to report a sample owns
// the transition window and publishes SF and k by advancing the epoch.
//
// If the supplied offline SF table is non-nil, the sampling phase is skipped
// entirely and the distribution uses the given per-type SF values — the
// AID-static(offline-SF) variant of §5C.
type AIDHybrid struct {
	aidLoop
	pct     float64
	static  bool      // report as AID-static
	offline []float64 // the offline-SF variant's table; nil samples online

	// smp's epoch 0 is the sampling phase; epoch 1 means SF and k are
	// published. sf and k are written only inside the transition window
	// (or by Reset for the offline variant).
	sf       []float64 // per core type, relative to the slowest sampled type
	k        float64
	assigned atomic.Int32
}

// NewAIDStatic returns an AID-static scheduler with the given sampling
// chunk. The paper uses chunk 1 in all experiments (§5A).
func NewAIDStatic(info LoopInfo, chunk int64) (*AIDHybrid, error) {
	return newAIDHybrid(info, chunk, &AIDHybrid{pct: 1.0, static: true})
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
	return newAIDHybrid(info, chunk, &AIDHybrid{pct: 1.0, static: true, offline: append([]float64{}, sf...)})
}

// NewAIDHybrid returns an AID-hybrid scheduler distributing pct (in (0,1])
// of the iterations via asymmetric distribution and the rest dynamically.
// The paper's sensitivity study selects pct=0.80 as the safe default (§5B).
func NewAIDHybrid(info LoopInfo, chunk int64, pct float64) (*AIDHybrid, error) {
	return newAIDHybrid(info, chunk, &AIDHybrid{pct: pct})
}

// newAIDHybrid checks a's configuration, gives it its sampling chunk and arms
// it for the loop.
func newAIDHybrid(info LoopInfo, chunk int64, a *AIDHybrid) (*AIDHybrid, error) {
	if chunk <= 0 {
		return nil, fmt.Errorf("core: AID sampling chunk must be positive, got %d", chunk)
	}
	if !(a.pct > 0 && a.pct <= 1) {
		return nil, fmt.Errorf("core: AID-hybrid percentage %v out of (0,1]", a.pct)
	}
	a.chunk = chunk
	return armed(a, info)
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
	a.sf, a.k = sized(a.sf, info.NumTypes), 0
	a.assigned.Store(0)
	if a.offline == nil {
		a.reset(info, 0)
		return nil
	}
	a.reset(info, 1) // SF published; no sampling phase
	copy(a.sf, a.offline)
	a.k = allotmentK(a.counts, a.sf, a.pct, info.NI)
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
func (a *AIDHybrid) finalAssign(tid int, st *aidThread, asg *Assign) (Assign, bool) {
	st.state = stDrain
	home := a.typeOf(tid)
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
		return a.take(tid, st, asg)
	}
	return st.serve(asg)
}

// readsClock answers ReadsClock: only the thread's own sampling window reads
// nowNs, opened in stNew and closed in stSampling. The sampling wait and the
// final allotment never touch it, and no transition leads back.
func (a *AIDHybrid) readsClock(tid int) bool {
	st := a.th[tid].state
	return st == stNew || st == stSampling
}

// Next implements Scheduler, realizing the Fig. 3 state machine: the
// sampling phase (aidLoop.sample), then one final allotment, then the drain.
func (a *AIDHybrid) Next(tid int, nowNs int64) (Assign, bool) {
	st := &a.th[tid]
	asg := &Assign{}
	if st.state == stDrain {
		// Past the final assignment: under AID-hybrid this schedules the
		// remaining (1-pct)·NI iterations dynamically; under AID-static it
		// only fires if SF rounding left a residue.
		return a.take(tid, st, asg)
	}
	switch a.sample(tid, st, nowNs, asg) {
	case sampleTake:
		return a.take(tid, st, asg)
	case samplePublish:
		// Last sampler: single-threaded transition window.
		a.sf = a.smp.sampledSF(a.sf)
		a.k = allotmentK(a.counts, a.sf, a.pct, a.info.NI)
		a.publish(PhaseEvent{TimeNs: nowNs, Tid: tid, Epoch: 1, Kind: PhaseSFPublished, SF: a.sf})
	}
	return a.finalAssign(tid, st, asg)
}
