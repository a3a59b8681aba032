package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted and is not
// modified; an empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	rank := float64(len(s)-1) * p / 100
	i := int(rank)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(rank-float64(i))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is what the benchmark driver computes spreads with. Fewer than two samples
// have no spread: both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure the driver holds against each metric's bound.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// tailPerMille are the percentiles a report may quote, in rising order and in
// tenths of a percent (integers, so that 99.9 % of 10000 leaves exactly ten).
var tailPerMille = []int{500, 750, 900, 950, 990, 999}

// highestPercentile returns the highest of the 50th, 75th, 90th, 95th, 99th
// and 99.9th percentile that still has at least ten of n samples beyond it,
// or 0 when not even the median does. A percentile with fewer samples beyond
// it is one or two outliers, not a property of the distribution.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 10
		}
	}
	return best
}

// metric is one reported number. Value is what gates and comparisons use;
// Q1, Q3 and N describe the samples Value is the median of, where it is one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// medianOf summarizes samples as their median with quartiles and count.
func medianOf(xs []float64, unit string) metric {
	q1, q3 := quartiles(xs)
	return metric{Value: median(xs), Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

func scalar(v float64, unit string) metric { return metric{Value: v, Unit: unit} }
