package replay

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/trace"
)

// PiecewiseCost is a cost model reconstructed from a record's grant events:
// each recorded chunk becomes one segment whose total work is the event's
// Cost, spread uniformly across its iterations. For queries that cover a
// recorded chunk exactly — the case exact replay produces — RangeUnits
// returns the stored total without re-summation, so replayed execution
// times are bit-identical to the original run's. What-if replays slice the
// segments at arbitrary boundaries and get the uniform-within-chunk
// interpolation, the finest cost information a record carries.
//
// This is how runs recorded on the real-goroutine engine become
// re-executable: the engine cannot know a closed-form cost model for an
// arbitrary Go loop body, but it measures every chunk's wall time, and
// BuildRecord converts those to work units via the platform speed model.
type PiecewiseCost struct {
	los, his []int64   // segments, sorted by lo, disjoint
	units    []float64 // total units per segment
}

// costFromEvents builds the piecewise model for loop li. The record's
// events must cover the loop exactly (checkCoverage enforces this for
// replays; the constructor only requires disjoint, sorted coverage).
func costFromEvents(rec *trace.Record, li int) (*PiecewiseCost, error) {
	type seg struct {
		lo, hi int64
		units  float64
	}
	var segs []seg
	for _, ev := range rec.Events {
		if int(ev.Loop) != li || ev.Retire {
			continue
		}
		segs = append(segs, seg{ev.Lo, ev.Hi, ev.Cost})
	}
	if len(segs) == 0 {
		if rec.Loops[li].NI == 0 {
			return &PiecewiseCost{}, nil
		}
		return nil, fmt.Errorf("replay: loop %q has no closed-form cost and no grant events to derive one", rec.Loops[li].Name)
	}
	slices.SortFunc(segs, func(a, b seg) int { return cmp.Compare(a.lo, b.lo) })
	c := &PiecewiseCost{
		los:   make([]int64, len(segs)),
		his:   make([]int64, len(segs)),
		units: make([]float64, len(segs)),
	}
	for i, s := range segs {
		if i > 0 && s.lo < c.his[i-1] {
			return nil, fmt.Errorf("replay: loop %q has overlapping grant events at iteration %d", rec.Loops[li].Name, s.lo)
		}
		c.los[i], c.his[i], c.units[i] = s.lo, s.hi, s.units
	}
	return c, nil
}

// segFor returns the index of the last segment with lo <= i.
func (c *PiecewiseCost) segFor(i int64) int {
	return sort.Search(len(c.los), func(k int) bool { return c.los[k] > i }) - 1
}

// Units implements sim.CostModel: the per-iteration share of iteration i's
// segment (0 for iterations outside every segment).
func (c *PiecewiseCost) Units(i int64) float64 {
	k := c.segFor(i)
	if k < 0 || i >= c.his[k] {
		return 0
	}
	return c.units[k] / float64(c.his[k]-c.los[k])
}

// RangeUnits implements sim.CostModel. A query matching one whole segment
// returns its stored total exactly; other queries sum whole segments and
// interpolate partial overlaps.
func (c *PiecewiseCost) RangeUnits(lo, hi int64) float64 {
	if hi <= lo || len(c.los) == 0 {
		return 0
	}
	k := c.segFor(lo)
	if k < 0 {
		k = 0
	}
	if c.los[k] == lo && c.his[k] == hi {
		return c.units[k] // exact-replay fast path: bit-identical total
	}
	sum := 0.0
	for ; k < len(c.los) && c.los[k] < hi; k++ {
		sLo, sHi := c.los[k], c.his[k]
		oLo, oHi := sLo, sHi
		if oLo < lo {
			oLo = lo
		}
		if oHi > hi {
			oHi = hi
		}
		if oHi <= oLo {
			continue
		}
		if oLo == sLo && oHi == sHi {
			sum += c.units[k]
			continue
		}
		sum += c.units[k] * float64(oHi-oLo) / float64(sHi-sLo)
	}
	return sum
}
