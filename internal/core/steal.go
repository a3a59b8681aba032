package core

import (
	"fmt"
	"sync"
)

// WorkSteal implements the work-stealing alternative the paper contrasts
// AID's work-sharing approach with (§4.3: "possibly by combining our
// work-sharing version of AID, with work-stealing techniques [4, 27]").
//
// Each thread owns a contiguous range of the iteration space, initially the
// same even split the static schedule would use. A thread consumes its own
// range from the front in `chunk`-sized bites; when its range runs dry it
// steals the back *half* of the most-loaded victim's range. On an AMP the
// big-core threads drain their ranges first and then relieve the small-core
// threads, so asymmetry is absorbed without any SF estimation — at the cost
// of steal operations and of the stolen ranges landing cold in the thief's
// cache.
//
// It is no stand-in for AID-static either way round: `aidbench -exp
// ablation` (work-steal 64 / AID-static 1) reads 0.7860 (particlefilter) to
// 1.4947 (bodytrack) on Platform A and 0.9257-1.3585 on B.
//
// WorkSteal also implements Migratable: migrations need no action because
// stealing continuously rebalances; the method exists so the runtime can
// treat all adaptive schedulers uniformly.
type WorkSteal struct {
	loopBase
	chunk int64

	mu     sync.Mutex
	ranges []stealRange
	// steals counts successful steal operations (for tests/ablation).
	steals int
}

type stealRange struct {
	lo, hi int64
}

// NewWorkSteal returns a work-stealing scheduler with the given bite size.
func NewWorkSteal(info LoopInfo, chunk int64) (*WorkSteal, error) {
	if chunk <= 0 {
		return nil, fmt.Errorf("core: work-steal chunk must be positive, got %d", chunk)
	}
	return armed(&WorkSteal{chunk: chunk}, info)
}

// Reset implements Resettable: each thread starts on its static block.
func (w *WorkSteal) Reset(info LoopInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	w.info, w.steals = info, 0
	w.ranges = sized(w.ranges, info.NThreads)
	split := Static{loopBase: loopBase{info: info}}
	for tid := range w.ranges {
		w.ranges[tid].lo, w.ranges[tid].hi = split.Range(tid)
	}
	return nil
}

// Name implements Scheduler.
func (w *WorkSteal) Name() string { return "work-steal" }

// Steals returns the number of successful steals so far.
func (w *WorkSteal) Steals() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.steals
}

// Migrate implements Migratable; work stealing self-balances, so the
// notification needs no bookkeeping.
func (w *WorkSteal) Migrate(int, int, int64) {}

// Next implements Scheduler.
func (w *WorkSteal) Next(tid int, _ int64) (Assign, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// All range bookkeeping sits behind one mutex — a single shared line in
	// the cost model, so contention is attributed globally.
	asg := Assign{AssignCost: AssignCost{Origin: OriginShared}}
	r := &w.ranges[tid]
	if r.lo >= r.hi {
		// Local range dry: steal the back half of the most-loaded victim.
		victim := -1
		var best int64
		for v := range w.ranges {
			if v == tid {
				continue
			}
			if load := w.ranges[v].hi - w.ranges[v].lo; load > best {
				best = load
				victim = v
			}
		}
		// Not worth stealing less than a chunk; finish instead.
		if victim < 0 || best <= w.chunk {
			return asg, false
		}
		vr := &w.ranges[victim]
		mid := vr.lo + (vr.hi-vr.lo)/2
		r.lo, r.hi = mid, vr.hi
		vr.hi = mid
		w.steals++
		asg.PoolAccesses++ // the steal is a synchronized operation
	}
	hi := r.lo + w.chunk
	if hi > r.hi {
		hi = r.hi
	}
	asg.Lo, asg.Hi = r.lo, hi
	asg.PoolAccesses++ // local deque access (cheaper in reality; modeled flat)
	r.lo = hi
	return asg, true
}
