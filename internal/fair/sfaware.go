package fair

import "math"

// DefaultSpread is the minimum max/min speedup-factor ratio across the
// candidates at which SFAware starts steering by core type. Below it the
// loops profit from big cores roughly alike (the paper's SF estimates are
// noisy at the few-percent level), so WRR shares are kept unchanged.
const DefaultSpread = 1.25

// sfAware is the speedup-factor-aware policy described in the package doc:
// weighted round-robin within the SF class matched to the calling worker's
// core type, plain weighted round-robin whenever the estimates cannot
// support steering.
type sfAware struct {
	wrr    weightedRoundRobin
	spread float64

	sub    []Candidate // scratch: the steering class presented to the cursor
	subIdx []int       // scratch: sub[i]'s index in the original cands
}

// NewSFAware returns the SF-aware fairness policy. quantum is the WRR
// quantum (0 selects DefaultQuantum); spread is the steering threshold on
// maxSF/minSF (values <= 1 select DefaultSpread).
func NewSFAware(quantum int, spread float64) Policy {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	if spread <= 1 {
		spread = DefaultSpread
	}
	return &sfAware{
		wrr:    weightedRoundRobin{quantum: quantum, last: make(map[int]uint64)},
		spread: spread,
	}
}

// Name implements Policy.
func (p *sfAware) Name() string { return "sf-aware" }

// bigSF reduces a per-core-type SF table to the candidate's ranking key:
// the speedup its loop gets from the fastest core type. Tables are
// relative to the slowest type, so this is the max entry.
func bigSF(sf []float64) float64 {
	best := 0.0
	for _, v := range sf {
		if v > best {
			best = v
		}
	}
	return best
}

// Pick implements Policy. A lone candidate's burst is unbounded; the test
// is on the full candidate set, so a steered class of one loop out of several
// candidates keeps its weight x quantum burst.
func (p *sfAware) Pick(tid int, cands []Candidate) (int, int) {
	idx, burst := p.pick(tid, cands)
	return idx, lone(cands, burst)
}

// pick is Pick with a weight x quantum burst whatever the candidate count.
func (p *sfAware) pick(tid int, cands []Candidate) (int, int) {
	// Fall back to WRR over all candidates until every loop has published a
	// stabilized estimate: steering on partial information would starve the
	// very sampling phases the estimates come from.
	minSF, maxSF := math.Inf(1), 0.0
	ntypes := 0
	for _, c := range cands {
		if len(c.SF) == 0 {
			return p.wrr.pick(tid, cands)
		}
		if len(c.SF) > ntypes {
			ntypes = len(c.SF)
		}
		s := bigSF(c.SF)
		if s < minSF {
			minSF = s
		}
		if s > maxSF {
			maxSF = s
		}
	}
	if ntypes < 2 || maxSF < p.spread*minSF {
		// One core type, or the loops speed up alike: placement can't help.
		return p.wrr.pick(tid, cands)
	}
	// Classify the calling worker against the platform's type range: low
	// cluster indexes are the fast cores under the BS convention. A worker
	// on the exact middle type (odd type counts) has no preference.
	mid := float64(ntypes-1) / 2
	ct := float64(cands[0].CoreType)
	if ct == mid {
		return p.wrr.pick(tid, cands)
	}
	// Partition at the geometric mid: big-core workers take the high-SF
	// side, small-core workers the low-SF side. Both sides are non-empty
	// (the extremes are separated by at least the spread ratio).
	thresh := math.Sqrt(minSF * maxSF)
	p.sub, p.subIdx = p.sub[:0], p.subIdx[:0]
	for i, c := range cands {
		s := bigSF(c.SF)
		if (ct < mid && s >= thresh) || (ct > mid && s <= thresh) {
			p.sub = append(p.sub, c)
			p.subIdx = append(p.subIdx, i)
		}
	}
	if len(p.sub) == 0 {
		return p.wrr.pick(tid, cands)
	}
	idx, burst := p.wrr.pick(tid, p.sub)
	return p.subIdx[idx], burst
}

// Retire implements Retirer by delegating to the shared WRR cursor.
func (p *sfAware) Retire(id uint64) { p.wrr.Retire(id) }
