package core

import (
	"fmt"
	"math"
	"sync/atomic"
)

// AIDDynamic implements the AID-dynamic schedule of §4.2 (Fig. 5), an
// asymmetry-aware replacement for OpenMP dynamic that reduces pool-access
// overhead by letting big-core threads remove larger chunks.
//
// Two chunk sizes are configured: the minor chunk m (used in the initial
// sampling phase, in all wait states and in the drain: the chunk of the
// aidLoop it embeds) and the Major chunk M ≥ m. The schedule alternates:
//
//  1. an initial sampling phase identical to AID-static's, the one aidLoop
//     that AIDHybrid embeds too, which yields the first value of R (= the
//     estimated SF);
//  2. AID phases, during which a small-core thread is allotted M iterations
//     and a big-core thread R·M. Each AID phase doubles as the next sampling
//     phase: when all threads complete it, the smoothing factor
//     SM = avg small-core phase time / avg big-core phase time
//     is computed and the next phase uses R' = R·SM. If the allotments were
//     perfectly balanced the raw phase times match and SM = 1.
//
// The whole schedule is lock free: chunk removal is a fetch-and-add on the
// caller's per-core-type shard (cut by the pool base, poolLoop), and phase
// transitions ride the sampler's packed CAS epoch word (phaseWord) — the
// thread that reports the last measurement of an epoch owns the transition
// window, re-estimates R, and publishes the next epoch in a single store.
//
// Following the optimization noted under Fig. 5, the scheduler switches
// permanently to dynamic(m) as soon as the remaining iteration count drops
// to M·NThreads or below, which removes the end-of-loop imbalance that large
// chunks would otherwise cause (§5B, Fig. 8).
type AIDDynamic struct {
	aidLoop
	M int64

	// smp's epoch 0 is the initial sampling, n>0 the nth AID phase. r is
	// published by pointer swap inside the transition window, so mid-run
	// readers never observe a half-written table. The tables themselves are
	// the two preallocated rbuf slots, written alternately: the window
	// closing epoch e fills rbuf[e&1] while readers hold the other, so a
	// published table stays intact until the window after next.
	r    atomic.Pointer[[]float64] // per core type, progress vs slowest type
	rbuf [2][]float64
	tail atomic.Bool // switched to dynamic(m) for the loop's end

	// Ablation toggles (see SetAblation); set before the first Next call.
	noTailSwitch bool
	noSMClamp    bool
}

// NewAIDDynamic returns an AID-dynamic scheduler with minor chunk m and
// Major chunk M (the paper's default experiments use m=1, M=5).
func NewAIDDynamic(info LoopInfo, m, M int64) (*AIDDynamic, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: minor chunk must be positive, got %d", m)
	}
	if M < m {
		return nil, fmt.Errorf("core: Major chunk %d must be >= minor chunk %d", M, m)
	}
	return armed(&AIDDynamic{aidLoop: aidLoop{chunk: m}, M: M}, info)
}

// Reset implements Resettable: a new pool cut, and the schedule starts over
// at its initial sampling phase.
func (a *AIDDynamic) Reset(info LoopInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	a.reset(info, 0)
	a.r.Store(nil)
	for i := range a.rbuf {
		a.rbuf[i] = sized(a.rbuf[i], info.NumTypes)
	}
	a.tail.Store(false)
	return nil
}

// Name implements Scheduler.
func (a *AIDDynamic) Name() string { return "aid-dynamic" }

// SetAblation disables individual design mechanisms so their contribution
// can be quantified (`aidbench -exp ablation` measures both, in its
// tail-switch and sm-clamp columns): disableTail removes the Fig. 5
// end-of-loop switch to dynamic(m); disableSMClamp removes the per-phase
// bound on the smoothing factor.
// Must be called before the first Next invocation.
func (a *AIDDynamic) SetAblation(disableTail, disableSMClamp bool) {
	a.noTailSwitch = disableTail
	a.noSMClamp = disableSMClamp
}

// Chunks returns the configured (m, M) pair.
func (a *AIDDynamic) Chunks() (m, M int64) { return a.chunk, a.M }

// R returns the current per-core-type progress ratios and ok=false before
// the initial sampling completes. Exposed for tests and ablations.
func (a *AIDDynamic) R() (r []float64, ok bool) {
	rp := a.r.Load()
	if rp == nil {
		return nil, false
	}
	return append([]float64(nil), (*rp)...), true
}

// SFEstimate implements SFEstimator: AID-dynamic's R is its running
// estimate of the per-core-type speedup factors.
func (a *AIDDynamic) SFEstimate() ([]float64, bool) { return a.R() }

// InTail reports whether the end-of-loop dynamic(m) switch has engaged.
func (a *AIDDynamic) InTail() bool { return a.tail.Load() }

// clampR keeps the progress ratio inside a sane envelope; a wildly wrong
// sample (e.g. a descheduled thread) must not produce pathological chunks.
func clampR(r float64) float64 {
	const lo, hi = 0.25, 64
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}

// computeInitialR derives R from the initial sampling phase exactly as
// AID-static derives SF (per-iteration-normalized times) and publishes it.
// Runs inside the single-threaded transition window of epoch 0.
func (a *AIDDynamic) computeInitialR() []float64 {
	r := a.smp.sampledSF(a.rbuf[0])
	for t := range r {
		r[t] = clampR(r[t])
	}
	a.r.Store(&a.rbuf[0])
	return r
}

// smoothR updates R per Fig. 5: R' = R·SM with SM the ratio of raw average
// phase completion times (slowest type over each type). Raw times are the
// correct signal here: if the previous allotment (R·M vs M) was balanced,
// all types finish simultaneously and SM = 1, leaving R unchanged. The
// per-phase correction is bounded to [2/3, 3/2] so one phase that happened
// to land on unusually heavy (or light) iterations cannot swing R wildly —
// without the bound, loops with coarse content-dependent cost variation
// oscillate, which is precisely what AID-dynamic's reduced chunk
// sensitivity (Fig. 8) is meant to avoid. The bound seldom binds, but does:
// `aidbench -exp ablation` (AID-dynamic 1,10 without it / with it) reads
// 1.0000 for 18 of 21 applications on Platform A and 15 on B, at most 1.0031
// on A, and 1.0578 for heartwall on B. Runs inside the transition window
// closing the given epoch; the new table is written to the spare rbuf slot
// and published by pointer swap.
func (a *AIDDynamic) smoothR(epoch uint32) []float64 {
	old := *a.r.Load()
	slot := &a.rbuf[epoch&1]
	// SM is the sampled SF of this phase's raw times; a type with no sample
	// reads 1 and keeps its R (every R already passed clampR).
	r := a.smp.sampledSF(*slot)
	for t, sm := range r {
		if !a.noSMClamp {
			if sm < 2.0/3.0 {
				sm = 2.0 / 3.0
			} else if sm > 1.5 {
				sm = 1.5
			}
		}
		r[t] = clampR(old[t] * sm)
	}
	a.r.Store(slot)
	return r
}

// phaseSpan returns the iteration count one full AID phase consumes,
// Σ_i R_type(i)·M — the tail-switch threshold: once less than one phase of
// work remains, uneven chunks can only create end-of-loop imbalance, so
// the schedule finishes under dynamic(m). (With R=1 everywhere this
// reduces to the M·NThreads bound stated under Fig. 5.) It reads the live
// thread-to-type mapping so OS migrations (§4.3) keep the threshold honest.
//
// The switch keeps a large Major chunk safe: `aidbench -exp ablation`
// (AID-dynamic 1,30 without it / with it) reads 1.0002-2.3020 on Platform A
// (BT worst) and 0.9907-2.1941 on B, where only bfs and IS are faster without.
func (a *AIDDynamic) phaseSpan() int64 {
	span := float64(0)
	r := a.r.Load()
	for tid := range a.types {
		rt := 1.0
		if r != nil {
			rt = (*r)[a.types[tid].Load()]
		}
		span += rt
	}
	return int64(span * float64(a.M))
}

// aidAssign hands thread tid its allotment for the current AID phase:
// R_j·M − δ iterations (M for the slowest type). It also performs the tail
// check: with less than one phase of work left, AID phases stop and the
// loop finishes under dynamic(m) (phaseSpan has what the switch is worth).
func (a *AIDDynamic) aidAssign(tid int, st *aidThread, asg *Assign, nowNs int64) (Assign, bool) {
	if !a.tail.Load() && !a.noTailSwitch && a.ws.Remaining() <= a.phaseSpan() {
		if a.tail.CompareAndSwap(false, true) {
			// The CAS winner reports the switch exactly once.
			a.report(PhaseEvent{TimeNs: nowNs, Tid: tid, Epoch: int(a.smp.epoch()), Kind: PhaseTailSwitch})
		}
	}
	if a.tail.Load() {
		st.state = stDrain
		return a.take(tid, st, asg)
	}
	st.state = stAID
	st.epoch = a.smp.epoch()
	a.smp.restamp(&st.window, nowNs)
	home := a.typeOf(tid)
	asg.Origin = int32(home) // drained-pool probes charge the home line
	r := *a.r.Load()
	nominal := max(int64(math.Round(r[home]*float64(a.M))), a.chunk)
	st.nominalN = nominal
	// δ holds what the thread claimed while waiting (§4.2): it has already
	// covered that much of its share, so the allotment shrinks accordingly.
	want := max(nominal-st.delta, a.chunk)
	// Re-arm δ at the thread's unserved credit balance: that work is still
	// owned (and will be executed this phase), so zeroing it outright would
	// under-count the next allotment subtraction.
	st.delta = st.credit.N()
	// Claim the allotment across shards: clipping it to a nearly drained
	// home shard would shrink the phase to a sliver, and rescaling a tiny
	// measured chunk to the nominal size amplifies timer noise straight
	// into the SM update. Tail pieces go to the stash and are served (and
	// measured) before the phase completes.
	_, acc := st.claimSpan(a.ws, home, want)
	asg.addAccesses(acc)
	// The phase-measurement window starts over the claimed span.
	got, ok := st.serve(asg)
	st.servedN = st.lastN
	if !ok {
		// Pool drained under the allotment claim, but the thread may still
		// hold credit; the drain path serves it — a thread must never
		// retire while it owns iterations.
		st.state = stDrain
		if st.credit.Empty() {
			// StealSpan above already observed the drained pool.
			return got, false
		}
		return a.take(tid, st, asg)
	}
	return got, ok
}

// readsClock answers ReadsClock: the dynamic(m) drain — after the tail switch,
// or after the pool drained under an allotment — is the only state nowNs can
// no longer reach, and no transition leaves it.
func (a *AIDDynamic) readsClock(tid int) bool { return a.th[tid].state != stDrain }

// Next implements Scheduler, realizing the Fig. 5 state machine: the
// sampling phase (aidLoop.sample), then AID phases until the tail switch or
// a drained pool, then the dynamic(m) drain.
func (a *AIDDynamic) Next(tid int, nowNs int64) (Assign, bool) {
	st := &a.th[tid]
	asg := &Assign{}
	switch st.state {
	case stAID:
		// Serve any outstanding pieces of the current allotment first: the
		// phase measurement must span the whole allotment, not just its
		// first piece.
		if rg, ok := st.pop(); ok {
			st.servedN += rg.N()
			asg.Lo, asg.Hi, asg.Origin = rg.Lo, rg.Hi, rg.From
			return *asg, true
		}
		// The thread just completed its AID-phase allotment; the phase
		// completion time is the next sampling measurement (Fig. 5). The
		// elapsed time is rescaled from the served to the nominal allotment
		// so that δ subtraction and pool drain cannot distort SM.
		if a.smp.close(&st.window, a.typeOf(tid), nowNs, st.servedN, st.nominalN, asg) {
			a.publish(PhaseEvent{TimeNs: nowNs, Tid: tid, Epoch: int(st.epoch) + 1,
				Kind: PhaseRSmoothed, SF: a.smoothR(st.epoch)})
			return a.aidAssign(tid, st, asg, nowNs)
		}
		st.state = stSamplingWait2
		return a.take(tid, st, asg)

	case stSamplingWait2:
		if st.epoch < a.smp.epoch() {
			return a.aidAssign(tid, st, asg, nowNs)
		}
		return a.take(tid, st, asg)

	case stDrain:
		return a.take(tid, st, asg)
	}
	switch a.sample(tid, st, nowNs, asg) {
	case sampleTake:
		return a.take(tid, st, asg)
	case samplePublish:
		a.publish(PhaseEvent{TimeNs: nowNs, Tid: tid, Epoch: 1, Kind: PhaseRInitial, SF: a.computeInitialR()})
	}
	return a.aidAssign(tid, st, asg, nowNs)
}
