package core

import (
	"fmt"
	"math"

	"repro/internal/pool"
)

// AIDAuto implements the paper's future-work proposal (§6): decide *per
// loop* whether the AID-static or the AID-dynamic treatment fits, instead of
// applying one variant to every loop of the program. The paper suggests a
// compiler-assisted decision ([44]); here the decision is taken online from
// the same sampling phase the AID methods already run, at no extra cost:
//
//   - every thread samples `chunk` iterations, as in Fig. 3;
//   - the last thread to finish sampling computes, per core type, the mean
//     per-iteration time (the SF estimate) and, across *all* threads, the
//     coefficient of variation (CV) of per-iteration times normalized by
//     their core type's mean. Uniform loops have CV ≈ 0 regardless of the
//     platform's asymmetry, because normalization removes the core-type
//     speed difference;
//   - if CV ≤ Threshold the loop's iterations are treated as equally costly
//     and the remainder is scheduled like AID-hybrid (one asymmetric
//     allotment for Pct of the iterations, dynamic tail) — the §5A result
//     that AID-hybrid is the safest static-family method;
//   - otherwise the loop is irregular and the remainder is scheduled like
//     AID-dynamic (uneven R·M/M phases with re-estimation).
//
// The wrapped variants reuse this scheduler's pool, so no iteration is lost
// or duplicated at the handover.
//
// The scheduler takes no lock. The last thread to finish sampling decides
// inside the sampler's transition window and publishes the verdict — with
// the SF table, k, or the adopted AID-dynamic — by advancing the sampler's
// epoch to 1, as AIDHybrid publishes SF and k; every reader of the verdict
// (Next's wait state, readsClock, Decision) loads the epoch first.
//
// Caveat: the classifier only sees NThreads·chunk iterations. Cost
// variation at a coarser granularity than that window is invisible and the
// loop is classified uniform; choose the sampling chunk so the window spans
// several cost regions (the adaptive example uses chunk 16 against
// 16-iteration cost blocks).
//
// `aidbench -exp ablation` (AID-auto / the faster of AID-hybrid(80%) and
// AID-dynamic 1,5) reads 0.9997-1.1976 on Platform A and 0.9981-1.3093 on B:
// within 1% for 12 of the 21 applications on each, IS the worst on both.
type AIDAuto struct {
	info      LoopInfo
	chunk     int64
	pct       float64
	major     int64
	threshold float64

	ws  *pool.ShardedWorkShare
	smp sampler // epoch 1 publishes the verdict and the state below

	th      []perThread
	typeAvg []float64 // decide's per-type mean sampling time
	counts  []int     // threads per core type

	irregular bool
	cv        float64

	// Post-decision state (one of the two is active).
	sf  []float64
	k   float64
	dyn *AIDDynamic // allocated by the first irregular loop, re-adopted by later ones

	// observe, when non-nil, receives the classification decision and is
	// forwarded to the adopted AID-dynamic instance (decision-capture hook
	// of the record & replay subsystem). Set before the first Next call.
	observe func(PhaseEvent)
}

// SetPhaseObserver implements PhaseObservable.
func (a *AIDAuto) SetPhaseObserver(fn func(PhaseEvent)) { a.observe = fn }

// NewAIDAuto returns an adaptive scheduler. chunk is the sampling chunk, pct
// the AID-hybrid share used for regular loops, major the AID-dynamic Major
// chunk used for irregular loops, and threshold the CV above which a loop
// counts as irregular (0 selects the default of 0.25).
func NewAIDAuto(info LoopInfo, chunk int64, pct float64, major int64, threshold float64) (*AIDAuto, error) {
	if chunk <= 0 {
		return nil, fmt.Errorf("core: AID-auto sampling chunk must be positive, got %d", chunk)
	}
	if !(pct > 0 && pct <= 1) {
		return nil, fmt.Errorf("core: AID-auto pct %v out of (0,1]", pct)
	}
	if major < chunk {
		return nil, fmt.Errorf("core: AID-auto Major chunk %d must be >= sampling chunk %d", major, chunk)
	}
	if !(threshold >= 0) || math.IsInf(threshold, 1) {
		return nil, fmt.Errorf("core: CV threshold %v must be finite and non-negative", threshold)
	}
	if threshold == 0 {
		threshold = 0.25
	}
	a := &AIDAuto{
		chunk:     chunk,
		pct:       pct,
		major:     major,
		threshold: threshold,
		ws:        new(pool.ShardedWorkShare),
	}
	if err := a.Reset(info); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset implements Resettable: the loop is sampled and classified afresh.
func (a *AIDAuto) Reset(info LoopInfo) error {
	if err := info.Validate(); err != nil {
		return err
	}
	a.info = info
	// A single shard, deliberately: the CV classifier reads cost variation
	// out of the sampling chunks, which must tile one contiguous global
	// window of the iteration space — per-type shards would fragment the
	// window and alias against block-structured cost patterns. The adopted
	// AID-dynamic inherits the pool; the pool clamps core-type home indexes
	// to its shard count.
	a.ws.Reset(info.NI, []int{info.NThreads})
	a.smp.reset(info, 0)
	a.th = resetThreads(a.th, info.NThreads)
	a.typeAvg = sized(a.typeAvg, info.NumTypes)
	a.counts = info.typeCounts(a.counts)
	a.sf = sized(a.sf, info.NumTypes)
	a.irregular, a.cv, a.k = false, 0, 0
	a.observe = nil
	return nil
}

// Name implements Scheduler.
func (a *AIDAuto) Name() string { return "aid-auto" }

// Decision reports the variant chosen for this loop and the measured
// coefficient of variation; ok is false before sampling completes.
func (a *AIDAuto) Decision() (irregular bool, cv float64, ok bool) {
	if a.smp.epoch() == 0 {
		return false, 0, false
	}
	return a.irregular, a.cv, true
}

func (a *AIDAuto) take(tid int, st *perThread, n int64, asg *Assign) (Assign, bool) {
	return st.take(a.ws, a.info.TypeOf(tid), n, asg)
}

// decide computes the SF table and the cross-thread CV of type-normalized
// per-iteration times, then locks in the variant. It runs in the sampler's
// transition window; the caller publishes the verdict with advance.
func (a *AIDAuto) decide() {
	a.smp.sampledSF(a.sf) // the SF estimate, identical to AID-static's
	typeAvg := a.typeAvg
	for t := range typeAvg {
		typeAvg[t], _ = a.smp.avg(t)
	}
	// Cross-thread CV of normalized samples.
	var n, sum, sumSq float64
	for tid := range a.th {
		s, t := float64(a.th[tid].sample), a.info.TypeOf(tid)
		if s <= 0 || typeAvg[t] <= 0 {
			continue
		}
		norm := s / typeAvg[t]
		n++
		sum += norm
		sumSq += norm * norm
	}
	if n > 1 && sum > 0 {
		mean := sum / n
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		a.cv = math.Sqrt(variance) / mean
	}
	a.irregular = a.cv > a.threshold
	if a.irregular {
		// Hand the remaining pool to an AID-dynamic instance seeded with
		// the estimated R, skipping its own sampling phase.
		if a.dyn == nil {
			a.dyn = new(AIDDynamic)
		}
		a.dyn.adopt(a.info, a.chunk, a.major, a.ws, a.sf)
		if a.observe != nil {
			a.dyn.SetPhaseObserver(a.observe)
		}
		return
	}
	a.k = allotmentK(a.counts, a.sf, a.pct, a.info.NI)
}

// finalAssign mirrors AIDHybrid's single asymmetric allotment, claimed
// across shards so a share larger than the home shard is not truncated.
func (a *AIDAuto) finalAssign(tid int, st *perThread, asg *Assign) (Assign, bool) {
	st.state = stDrain
	asg.Origin = OriginShared
	want := int64(a.sf[a.info.TypeOf(tid)]*a.k+0.5) - st.delta
	if want <= 0 {
		return a.take(tid, st, a.chunk, asg)
	}
	rs, acc := st.claimSpan(a.ws, a.info.TypeOf(tid), want)
	normalizeOrigin(a.ws, rs) // the classifier's pool is a single global window
	asg.addAccesses(acc)
	st.delta += spanN(rs)
	return st.serve(asg)
}

// readsClock answers ReadsClock. After an irregular decision every thread's
// calls go to the adopted AID-dynamic, whose answer counts; this scheduler's
// own stDrain marks only its uniform path's drain (and the deciding thread's
// bookkeeping on the irregular one). A thread waiting for the decision must
// answer true: an irregular verdict hands its next call to AID-dynamic.
func (a *AIDAuto) readsClock(tid int) bool {
	if a.smp.epoch() > 0 && a.irregular {
		return a.dyn.readsClock(tid)
	}
	return a.th[tid].state != stDrain
}

// Next implements Scheduler.
func (a *AIDAuto) Next(tid int, nowNs int64) (Assign, bool) {
	st := &a.th[tid]
	asg := &Assign{}
	switch st.state {
	case stNew:
		a.smp.open(&st.window, nowNs, asg)
		st.state = stSampling
		return a.take(tid, st, a.chunk, asg)

	case stSampling:
		if a.smp.close(&st.window, a.info.TypeOf(tid), nowNs, st.lastN, sampleScale, asg) {
			a.decide()
			if a.observe != nil {
				kind := PhaseAutoUniform
				if a.irregular {
					kind = PhaseAutoIrregular
				}
				a.observe(PhaseEvent{TimeNs: nowNs, Tid: tid, Epoch: 1,
					Kind: kind, SF: append([]float64(nil), a.sf...)})
			}
			a.smp.advance(1)
			if a.irregular {
				st.state = stDrain // bookkeeping only; dyn takes over
				return a.dyn.Next(tid, nowNs)
			}
			return a.finalAssign(tid, st, asg)
		}
		st.state = stSamplingWait
		return a.take(tid, st, a.chunk, asg)

	case stSamplingWait:
		if a.smp.epoch() == 0 {
			return a.take(tid, st, a.chunk, asg)
		}
		if a.irregular {
			return a.dyn.Next(tid, nowNs)
		}
		return a.finalAssign(tid, st, asg)

	case stDrain:
		if a.irregular {
			return a.dyn.Next(tid, nowNs)
		}
		return a.take(tid, st, a.chunk, asg)
	}
	panic(fmt.Sprintf("core: thread %d in invalid state %v", tid, st.state))
}

// adopt arms d as an AID-dynamic schedule that takes over an existing
// iteration pool and a pre-computed R table, entering the AID-phase regime
// directly (its own sampling already happened in the caller).
func (d *AIDDynamic) adopt(info LoopInfo, m, major int64, ws *pool.ShardedWorkShare, r []float64) {
	d.m, d.M, d.ws = m, major, ws
	// Epoch 1 opens with all threads outstanding, as if they had just
	// finished the initial sampling phase.
	d.rearm(info, 1)
	for i, v := range r {
		d.rbuf[0][i] = clampR(v)
	}
	d.r.Store(&d.rbuf[0])
	for tid := range d.th {
		d.th[tid].state = stSamplingWait
	}
}
