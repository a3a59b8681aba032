package core

import "sync/atomic"

// sampleScale is the fixed-point factor of a sampling window's
// measurement: the window files elapsed·1024/n, a per-iteration time that
// keeps sub-nanosecond precision in integer arithmetic and that end-of-loop
// clipping of the chunk cannot bias.
const sampleScale = 1024

// sampler is the measuring machinery of the AID sampling phase (§4.2, Figs.
// 3 and 5). It lives in aidLoop, the skeleton both AID machines embed, whose
// sample steps a thread through the phase on top of it. It owns
//
//   - the per-core-type sum/count accumulators of footnote 2 of §4.2: the
//     average measurement of a core type is sum/count;
//   - the phase word, which detects the last measurer of an epoch without
//     a lock;
//   - the rule for a thread's measuring window (open, close, restamp): which
//     clock stamps are charged to Assign.Timestamps, and what is filed.
//
// Measurements reach the accumulators only through close, before its
// complete, and the accumulators are read and cleared only by the epoch's
// last measurer before it calls advance, so they are never read and written
// at once.
type sampler struct {
	sumNs  []atomic.Int64
	counts []atomic.Int64
	phase  phaseWord
	n      int // threads that report a measurement each epoch
}

// window is one thread's measuring window, kept in the thread's own padded
// state (aidThread): the clock stamp the window opened at, the epoch its
// measurement reports to (0, the sampling phase, until AID-dynamic's
// aidAssign moves it on).
type window struct {
	lastTS int64
	epoch  uint32
}

// reset arms s for a loop of info's shape (info valid) at the given epoch:
// 0 opens the sampling phase, 1 skips it (the offline-SF variant). The
// accumulators keep their storage when it is large enough. Like Reset it must
// not race with a measurer.
func (s *sampler) reset(info LoopInfo, epoch uint32) {
	if cap(s.sumNs) < info.NumTypes {
		s.sumNs = make([]atomic.Int64, info.NumTypes)
		s.counts = make([]atomic.Int64, info.NumTypes)
	}
	s.sumNs, s.counts = s.sumNs[:info.NumTypes], s.counts[:info.NumTypes]
	s.n = info.NThreads
	s.clear()
	s.phase.open(epoch, info.NThreads)
}

func (s *sampler) clear() {
	for t := range s.sumNs {
		s.sumNs[t].Store(0)
		s.counts[t].Store(0)
	}
}

// epoch returns the current phase: 0 while sampling, n>0 once the nth
// transition window published its result.
func (s *sampler) epoch() uint32 { return s.phase.epoch() }

// open starts w's window at nowNs, charging the clock read.
func (s *sampler) open(w *window, nowNs int64, asg *Assign) {
	w.lastTS = nowNs
	asg.Timestamps++
}

// restamp starts w's window at nowNs WITHOUT charging the clock read. Only
// AID-dynamic's aidAssign calls it, for a thread leaving a wait state: the
// read is real but uncharged (ROADMAP finding (e)). The simulator prices
// Timestamps and the engine golden digests it, so charging it moves numbers
// and waits for the window that re-pins the goldens.
func (s *sampler) restamp(w *window, nowNs int64) { w.lastTS = nowNs }

// close ends w's window at nowNs, charging the clock read, and opens the
// next one there. A window that covered n > 0 iterations files
// elapsed·scale/n for core type typ — elapsed itself when scale is n or not
// positive — and close reports whether the caller was the last measurer of
// w's epoch: that thread owns the transition window, reads the
// accumulators, and ends the window with advance.
func (s *sampler) close(w *window, typ int, nowNs, n, scale int64, asg *Assign) (last bool) {
	asg.Timestamps++
	return s.measure(w, typ, nowNs, n, scale)
}

// measure is close past its charge, out of line so that close inlines into
// the state machines.
func (s *sampler) measure(w *window, typ int, nowNs, n, scale int64) (last bool) {
	elapsed := nowNs - w.lastTS
	w.lastTS = nowNs
	if n <= 0 {
		return false
	}
	if scale > 0 && scale != n {
		elapsed = elapsed * scale / n
	}
	s.sumNs[typ].Add(elapsed)
	s.counts[typ].Add(1)
	return s.phase.complete(w.epoch)
}

// advance ends the transition window: the accumulators start over for the
// next epoch, which is published with every thread's report outstanding.
func (s *sampler) advance(next uint32) {
	s.clear()
	s.phase.open(next, s.n)
}

// avg returns the average measurement filed for core type t, and ok=false
// when no thread of that type filed one.
func (s *sampler) avg(t int) (float64, bool) {
	n := s.counts[t].Load()
	if n == 0 {
		return 0, false
	}
	return float64(s.sumNs[t].Load()) / float64(n), true
}

// sampledSF writes into sf, one entry per core type, the speedup factor the
// accumulators measure (§4.2): the slowest core type (largest average
// per-iteration time) is the reference with SF=1, and every other type's SF
// is slowestAvg/typeAvg. Types with no sample (no running threads) get
// SF=1; they receive no iterations anyway (N_t = 0). Callers clamp.
func (s *sampler) sampledSF(sf []float64) []float64 {
	slowest := 0.0
	for t := range sf {
		if avg, ok := s.avg(t); ok && avg > slowest {
			slowest = avg
		}
	}
	for t := range sf {
		sf[t] = 1
		if avg, ok := s.avg(t); ok && avg > 0 && slowest > 0 {
			sf[t] = slowest / avg
		}
	}
	return sf
}
