package stats

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestHistogramIndexBounds(t *testing.T) {
	// Every probe value must land in a bucket whose bounds contain it.
	probes := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20,
		1<<40 + 12345, math.MaxInt64}
	for _, v := range probes {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		lo, hi := histBounds(i)
		if v < lo || (v >= hi && !(hi == math.MaxInt64 && v == hi)) {
			t.Errorf("value %d landed in bucket %d = [%d,%d)", v, i, lo, hi)
		}
		// The error-bound contract: bucket width <= lo >> histSubBits for
		// buckets past the exact region.
		if lo >= histSub && hi-lo > lo>>histSubBits {
			t.Errorf("bucket %d = [%d,%d) wider than lo/2^%d", i, lo, hi, histSubBits)
		}
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram()
	if _, err := h.Percentile(50); err == nil {
		t.Fatal("empty histogram must refuse percentiles")
	}
	for _, v := range []float64{5, 3, 12, 3, 100} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if _, err := h.Percentile(-1); err == nil {
		t.Fatal("percentile -1 must be rejected")
	}
}

// TestHistogramPercentileWithinRange: a quantile is interpolated inside its
// bucket, but never past the observed extremes. Two values sharing the
// bucket [992, 1008) put p0 and p100 a quarter-width inside it, below the
// minimum and above the maximum, unless the result is clamped; one value
// alone used to read as its bucket's midpoint.
func TestHistogramPercentileWithinRange(t *testing.T) {
	h := NewHistogram()
	h.Add(1000)
	h.Add(1001)
	for _, c := range []struct{ p, want float64 }{{0, 1000}, {100, 1001}} {
		if got, _ := h.Percentile(c.p); got != c.want {
			t.Errorf("p%v of {1000, 1001} = %v, want %v", c.p, got, c.want)
		}
	}
	for _, p := range []float64{1, 25, 50, 75, 99} {
		if got, _ := h.Percentile(p); got < 1000 || got > 1001 {
			t.Errorf("p%v of {1000, 1001} = %v, outside the observed range", p, got)
		}
	}
	one := NewHistogram()
	one.Add(4_017_123)
	for _, p := range []float64{0, 50, 99, 100} {
		if got, _ := one.Percentile(p); got != 4_017_123 {
			t.Errorf("p%v of one value 4017123 = %v, want the value", p, got)
		}
	}
}

// TestHistogramVsReservoir is the accuracy gate: the histogram and the exact
// order statistics of the same stream (stats.Percentile over the kept
// samples; the reference was a full-capacity Reservoir until that type was
// deleted, hence the name) must agree at p50/p95/p99 within the bucket
// relative-error bound.
func TestHistogramVsReservoir(t *testing.T) {
	const n = 20000
	rng := xrand.New(42)
	h := NewHistogram()
	exact := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Latency-shaped stream: roughly log-uniform over [1e3, 1e8] ns
		// with a heavy tail, exercising many octaves.
		u := float64(rng.Uint64()%1_000_000) / 1_000_000
		v := math.Pow(10, 3+5*u)
		if rng.Uint64()%97 == 0 {
			v *= 8 // tail spikes
		}
		h.Add(v)
		exact = append(exact, v)
	}
	const bound = 1.0 / histSub // the histogram's relative quantile error
	for _, p := range []float64{50, 95, 99} {
		hp, err := h.Percentile(p)
		if err != nil {
			t.Fatalf("hist p%v: %v", p, err)
		}
		rp, err := Percentile(exact, p)
		if err != nil {
			t.Fatalf("exact p%v: %v", p, err)
		}
		// Percentile interpolates between adjacent order statistics and
		// the histogram between bucket edges; allow two bucket widths.
		if diff := math.Abs(hp - rp); diff > 2*bound*rp+1 {
			t.Errorf("p%v disagree: hist %.0f vs exact %.0f (diff %.0f > %.0f)",
				p, hp, rp, diff, 2*bound*rp+1)
		}
	}
}
