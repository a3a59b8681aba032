package stats

import (
	"math"
	"sort"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 20, 30} // deliberately unsorted
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{25, 17.5},
		{50, 25}, // even length: average of the two central elements
		{75, 32.5},
		{100, 40},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("Percentile modified its input")
	}
	if got, _ := Percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("odd-length p50 = %v, want 2", got)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty slice: err = %v, want ErrEmpty", err)
	}
	for _, p := range []float64{-1, 101, math.NaN()} {
		if _, err := Percentile([]float64{1}, p); err == nil {
			t.Errorf("Percentile(_, %v) accepted an out-of-range p", p)
		}
	}
}

// TestMedianIsPercentile50 pins the consistency the aidserve report bug
// violated: a hand-rolled sorted[len/2] median disagrees with the median for
// even lengths, which Percentile(50) must give: the central element, or the
// mean of the two central elements.
func TestMedianIsPercentile50(t *testing.T) {
	cases := [][]float64{
		{5},
		{1, 2},
		{3, 1, 2},
		{4, 1, 3, 2},
		{10, 20, 30, 40, 50, 60},
	}
	for _, xs := range cases {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		n := len(sorted)
		want := (sorted[(n-1)/2] + sorted[n/2]) / 2
		if p, err := Percentile(xs, 50); err != nil || p != want {
			t.Errorf("Percentile(%v, 50) = %v, %v; want the median %v", xs, p, err, want)
		}
	}
	// The even-length case the off-by-one median got wrong: upper-mid 30
	// instead of 25.
	if m, _ := Percentile([]float64{10, 20, 30, 40}, 50); m != 25 {
		t.Errorf("median of {10,20,30,40} = %v, want 25", m)
	}
}
