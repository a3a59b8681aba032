// Package stats provides the small set of statistical helpers used by the
// experiment harness: arithmetic and geometric means, normalization against a
// baseline, and the "discard first run, geomean of the rest" aggregation the
// paper applies to completion times (§5).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values make the result NaN, mirroring math.Log domain errors.
// It returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Min returns the minimum of xs and an error if xs is empty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs and an error if xs is empty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile of xs (0 <= p <= 100) using linear
// interpolation between closest ranks: rank = (n-1)·p/100, with fractional
// ranks interpolating the two neighbouring order statistics. Percentile(xs,
// 0) is the minimum, Percentile(xs, 100) the maximum, and Percentile(xs,
// 50) the median (averaging the two central elements for even lengths). It
// errors on an empty slice or a p outside [0, 100]. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: percentile %v outside [0, 100]", p)
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return percentileSorted(cp, p), nil
}

// percentileSorted is Percentile over an already-sorted, non-empty slice.
func percentileSorted(sorted []float64, p float64) float64 {
	rank := float64(len(sorted)-1) * p / 100
	lo := int(rank)
	frac := rank - float64(lo)
	if frac == 0 || lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// relGainPct returns the relative performance gain, in percent, of `next`
// over `prev` where both are completion times (lower is better):
// (prev/next - 1) * 100.
func relGainPct(prevTime, nextTime float64) float64 {
	return (prevTime/nextTime - 1) * 100
}

// MeanGainPct returns the arithmetic mean of per-application relative gains
// (in percent) of scheme `b` over scheme `a`, where a[i] and b[i] are the
// completion times of application i under each scheme.
func MeanGainPct(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	gains := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		gains = append(gains, relGainPct(a[i], b[i]))
	}
	return Mean(gains)
}

// GeoMeanGainPct returns the geometric-mean relative gain (in percent) of
// scheme b over scheme a, following Table 2's "Gmean" column: the geomean of
// the per-application speedup ratios, expressed as a percentage improvement.
func GeoMeanGainPct(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ratios = append(ratios, a[i]/b[i])
	}
	return (GeoMean(ratios) - 1) * 100
}
