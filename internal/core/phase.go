package core

import (
	"fmt"
	"sync/atomic"
)

// phaseWord is the packed CAS state word that serializes AID phase
// transitions without a lock (§4.2 keeps the whole loop hot path lock
// free). Its one caller is the sampler (sampler.go), which measures the
// sampling phase both AID machines share through aidLoop. One 64-bit word
// packs:
//
//	bits 32..63  epoch      — 0 is the sampling phase, n>0 the nth AID phase
//	bits  0..31  remaining  — threads yet to report a measurement this epoch
//
// A thread finishing its measured chunk calls complete: a CAS decrement of
// remaining under an unchanged epoch. The thread that decrements remaining
// to zero is the LAST of the epoch — it owns the single-threaded transition
// window (compute SF or R, clear the accumulators) and
// then publishes the next epoch with open, re-arming remaining in the
// same store. Readers observe the epoch with a plain atomic load. Because
// every measurement is added to the accumulators before complete, and open
// is the only publication of the new epoch, the accumulators are never
// touched concurrently with the transition.
type phaseWord struct {
	v atomic.Uint64
}

func packPhase(epoch, remaining uint32) uint64 {
	return uint64(epoch)<<32 | uint64(remaining)
}

// open publishes epoch with all nthreads measurements outstanding: at the
// start of a loop (epoch 0, or 1 for a schedule that enters past its
// sampling), and as the end of a transition window, called only by the
// thread that observed last=true from complete.
func (p *phaseWord) open(epoch uint32, nthreads int) {
	p.v.Store(packPhase(epoch, uint32(nthreads)))
}

// epoch returns the current phase number.
func (p *phaseWord) epoch() uint32 {
	return uint32(p.v.Load() >> 32)
}

// complete records that the calling thread finished its measurement for
// myEpoch and reports whether it was the last to do so. A stale myEpoch
// (the word already moved on) is a state-machine bug and panics.
func (p *phaseWord) complete(myEpoch uint32) (last bool) {
	for {
		cur := p.v.Load()
		epoch, rem := uint32(cur>>32), uint32(cur)
		if epoch != myEpoch || rem == 0 {
			panic(fmt.Sprintf("core: phase completion for epoch %d against word (epoch %d, remaining %d)", myEpoch, epoch, rem))
		}
		if p.v.CompareAndSwap(cur, packPhase(epoch, rem-1)) {
			return rem == 1
		}
	}
}
