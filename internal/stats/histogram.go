package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// histSubBits is the log2 sub-bucket resolution of Histogram: each power-
// of-two octave is split into 2^histSubBits equal-width buckets, bounding
// the relative quantile error at 2^-histSubBits.
const histSubBits = 5

// histSub is the sub-bucket count per octave.
const histSub = 1 << histSubBits

// histBuckets covers non-negative int64 values: the exact region [0,
// histSub) one bucket per value, then (63-histSubBits) octaves of histSub
// buckets each.
const histBuckets = (64 - histSubBits) * histSub

// Histogram is a log-bucketed latency histogram: a streaming percentile
// store with a fixed error bound (stats.Percentile over a kept sample is the
// exact alternative). Values (nanoseconds, but any non-negative magnitude
// works) land in HDR-style buckets: exact below histSub, then power-of-two
// octaves split into histSub sub-buckets, so a quantile read is off by at
// most 1/histSub of the true value no matter how many observations streamed
// through. Memory is a fixed ~15 KiB of counts.
//
// The zero value is NOT ready; use NewHistogram. Not safe for concurrent
// use; callers serialize Add.
type Histogram struct {
	counts []int64
	count  int64
	min    float64 // the exact extremes, which Percentile clamps to
	max    float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, histBuckets)}
}

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < histSub {
		return int(v)
	}
	m := 63 - bits.LeadingZeros64(uint64(v))
	return (m-histSubBits+1)*histSub + int((v-1<<m)>>(m-histSubBits))
}

// histBounds returns bucket i's half-open value interval [lo, hi). The
// final bucket's upper bound clamps to MaxInt64 (it is inclusive there):
// lo+w would wrap past the int64 range.
func histBounds(i int) (lo, hi int64) {
	if i < histSub {
		return int64(i), int64(i) + 1
	}
	m := i/histSub + histSubBits - 1
	off := int64(i % histSub)
	w := int64(1) << (m - histSubBits)
	lo = 1<<m + off*w
	if hi = lo + w; hi < lo {
		hi = math.MaxInt64
	}
	return lo, hi
}

// Add offers one observation. Negative values clamp to zero; values beyond
// int64 range clamp to the top bucket.
func (h *Histogram) Add(x float64) {
	v := int64(0)
	switch {
	case x != x || x <= 0: // NaN and negatives clamp to zero
	case x >= math.MaxInt64:
		v = math.MaxInt64
	default:
		v = int64(x)
	}
	h.counts[histIndex(v)]++
	h.count++
	if h.count == 1 || x < h.min {
		h.min = x
	}
	if h.count == 1 || x > h.max {
		h.max = x
	}
}

// Count returns how many observations were offered.
func (h *Histogram) Count() int64 { return h.count }

// Percentile returns the p-th percentile (0 <= p <= 100) to within a relative
// error of 1/histSub: the result is within that fraction of some true order
// statistic adjacent to the requested rank (the bucket width over its lower
// edge). The rank is stats.Percentile's (p=0 the minimum bucket, p=100 the
// maximum), and so is the interpolation, but only within one bucket: a rank
// between two occupied buckets reads inside the upper one (271.7 and 484.0
// give 482.3 at p=50, stats.Percentile 377.9). The result is clamped to the
// exact range of the observations, and a histogram of one value returns that
// value.
func (h *Histogram) Percentile(p float64) (float64, error) {
	if h.count == 0 {
		return 0, fmt.Errorf("stats: empty histogram")
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	rank := p / 100 * float64(h.count-1) // fractional order-statistic rank
	cum := int64(0)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum-1) >= rank {
			lo, hi := histBounds(i)
			// Interpolate within the bucket by the rank's position among
			// its c occupants, mirroring stats.Percentile's linear ranks.
			first := float64(cum - c) // rank of the bucket's first occupant
			frac := 0.5
			if c > 1 {
				frac = (rank - first + 0.5) / float64(c)
				if frac < 0 {
					frac = 0
				}
				if frac > 1 {
					frac = 1
				}
			}
			v := float64(lo) + frac*float64(hi-lo)
			return min(max(v, h.min), h.max), nil
		}
	}
	return h.max, nil // unreachable unless counts and count disagree
}
