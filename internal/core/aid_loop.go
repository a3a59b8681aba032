package core

import (
	"fmt"
	"sync/atomic"
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

// aidLoop is the skeleton both AID machines embed: AIDHybrid (AID-static and
// AID-hybrid) and AIDDynamic, whose first phase the paper defines as
// identical to AID-static's sampling phase (§4.2, Figs. 3 and 5). It holds
// that phase (sample) and everything it runs on:
//
//   - the pool base and the chunk every sampling, wait and drain call claims
//     (AID-static/hybrid's sampling chunk, AID-dynamic's minor chunk m);
//   - one aidThread per worker;
//   - the per-thread core type, which Migrate updates while the loop runs;
//   - the sampler and the phase observer.
//
// Migrate and SetPhaseObserver are the machines' own methods by promotion.
type aidLoop struct {
	poolLoop
	chunk int64
	th    []aidThread
	types []atomic.Int32 // per-thread core type; mutable via Migrate (§4.3)
	smp   sampler

	// observe, when non-nil, receives the machine's phase transitions (the
	// decision-capture hook of the record & replay subsystem). Set before
	// the first Next call. Epoch transitions invoke it inside the transition
	// window; AID-dynamic's tail switch invokes it from whichever thread won
	// the switch, possibly concurrently with a transition.
	observe func(PhaseEvent)
}

// aidThread is the bookkeeping an AID machine keeps per worker. An entry is
// only ever touched by its owning thread, so no synchronization is needed;
// the trailing pad keeps neighbouring entries off each other's cache lines.
type aidThread struct {
	state threadState
	// window's epoch is the epoch the thread's next measurement reports to:
	// 0, the sampling phase, until AID-dynamic's aidAssign moves it to the
	// AID phase it allots.
	window
	// nominalN is the intended allotment (R_j·M) of the thread's current
	// AID-dynamic phase. The actual allotment may be smaller (δ subtraction,
	// pool drain); measured phase times are rescaled to the nominal size so
	// the smoothing-factor invariant holds: a perfectly balanced phase
	// yields SM = 1 regardless of how many iterations each thread already
	// covered while waiting.
	nominalN int64
	// servedN accumulates the allotment pieces served so far this phase;
	// the phase measurement covers all of them, so a multi-shard span does
	// not shrink the measured window to its first piece.
	servedN int64
	claimState
	_ [64]byte
}

// reset arms the skeleton for info (info valid) at the given sampler epoch:
// 0 opens the sampling phase, 1 skips it (the offline-SF variant). The pool
// is cut anew, every thread starts as a new loop finds it (its stash keeps
// its storage), the type table is snapshotted and the observer dropped.
func (a *aidLoop) reset(info LoopInfo, epoch uint32) {
	a.cut(info)
	if cap(a.th) < info.NThreads {
		a.th = make([]aidThread, info.NThreads)
	}
	a.th = a.th[:info.NThreads]
	for i := range a.th {
		a.th[i] = aidThread{claimState: claimState{pending: a.th[i].pending[:0]}}
	}
	a.types = sized(a.types, info.NThreads)
	for tid := range a.types {
		a.types[tid].Store(int32(info.TypeOf(tid)))
	}
	a.smp.reset(info, epoch)
	a.observe = nil
}

// typeOf returns the core type thread tid runs on now.
func (a *aidLoop) typeOf(tid int) int { return int(a.types[tid].Load()) }

// take serves thread tid up to one chunk via its claimState, on the batched
// credit path from the thread's current home shard: the sampling, wait and
// drain states draw most chunks from a thread-local credit instead of paying
// one pool RMW per chunk.
func (a *aidLoop) take(tid int, st *aidThread, asg *Assign) (Assign, bool) {
	return st.takeCredit(a.ws, a.typeOf(tid), a.chunk, asg)
}

// Migrate implements Migratable (§4.3): thread tid now runs on a core of
// newType, and its claims and its next allotment use that type. AID-dynamic
// adapts fully: the thread's next AID-phase allotment uses the new type's R,
// and the next smoothing folds its measured times into the new type's
// average, the property that makes AID-dynamic the paper's candidate for
// multi-application scenarios with OS-driven thread placement. AID-static
// and AID-hybrid adapt only until the thread's final allotment: after it
// they have no rebalancing mechanism (the paper suggests combining them with
// work stealing for that case), and the drain's dynamic fallback is the only
// relief.
func (a *aidLoop) Migrate(tid, newType int, _ int64) {
	if newType >= 0 && newType < a.info.NumTypes {
		a.types[tid].Store(int32(newType))
	}
}

// SetPhaseObserver implements PhaseObservable.
func (a *aidLoop) SetPhaseObserver(fn func(PhaseEvent)) { a.observe = fn }

// report hands ev, with a copy of its SF, to the observer, if any.
func (a *aidLoop) report(ev PhaseEvent) {
	if a.observe != nil {
		ev.SF = append([]float64(nil), ev.SF...)
		a.observe(ev)
	}
}

// publish ends the transition window its caller owns: the observer sees ev,
// then epoch ev.Epoch opens with every thread's report outstanding.
func (a *aidLoop) publish(ev PhaseEvent) {
	a.report(ev)
	a.smp.advance(uint32(ev.Epoch))
}

// sampleStep is what the sampling phase asks of a Next call.
type sampleStep int

const (
	sampleTake    sampleStep = iota // serve the thread a chunk
	samplePublish                   // the caller measured last: publish the estimate, then allot
	sampleAllot                     // the estimate is published: allot
)

// sample steps thread tid through the Fig. 3 sampling phase, which is
// AID-dynamic's first phase too (Fig. 5):
//
//	NEW --(open window)--> SAMPLING --(not last)--> SAMPLING_WAIT --(published)--> allot
//	                       SAMPLING --(last)--> publish, allot
//
// The chunk a thread is served in NEW is its sample, and the measurement
// SAMPLING files covers it. Every call that does not allot is served a
// chunk, so no thread idles while the estimate converges. A machine armed
// past sampling (the offline-SF variant) allots from the first call.
func (a *aidLoop) sample(tid int, st *aidThread, nowNs int64, asg *Assign) sampleStep {
	switch st.state {
	case stNew:
		a.smp.open(&st.window, nowNs, asg)
		if a.smp.epoch() > 0 {
			return sampleAllot
		}
		st.state = stSampling
		return sampleTake

	case stSampling:
		if a.smp.close(&st.window, a.typeOf(tid), nowNs, st.lastN, sampleScale, asg) {
			return samplePublish
		}
		st.state = stSamplingWait
		return sampleTake

	case stSamplingWait:
		if a.smp.epoch() > 0 {
			return sampleAllot
		}
		return sampleTake
	}
	panic(fmt.Sprintf("core: thread %d in invalid state %v", tid, st.state))
}
