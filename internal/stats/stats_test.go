package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 3},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1}, 0},
		{"many", []float64{1, 2, 3, 4, 5}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestGeoMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{1, 4}, 2},
		{"triple", []float64{1, 2, 4}, 2},
		{"identity", []float64{7, 7, 7}, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := GeoMean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("GeoMean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestGeoMeanLEMean(t *testing.T) {
	// AM-GM inequality: geomean <= mean for positive inputs.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1 // strictly positive
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	mn, err := Min(xs)
	if err != nil || mn != 1 {
		t.Errorf("Min = %v, %v; want 1, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 9 {
		t.Errorf("Max = %v, %v; want 9, nil", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

// TestMedian reads the median as Percentile(xs, 50).
func TestMedian(t *testing.T) {
	odd := []float64{5, 1, 3}
	if m, err := Percentile(odd, 50); err != nil || m != 3 {
		t.Errorf("Percentile(odd, 50) = %v, %v", m, err)
	}
	even := []float64{4, 1, 3, 2}
	if m, err := Percentile(even, 50); err != nil || m != 2.5 {
		t.Errorf("Percentile(even, 50) = %v, %v", m, err)
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(nil, 50) err = %v", err)
	}
	// The median must not mutate its input.
	in := []float64{9, 1, 5}
	if _, err := Percentile(in, 50); err != nil {
		t.Fatal(err)
	}
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("Percentile(_, 50) mutated input: %v", in)
	}
}

func TestRelGainPct(t *testing.T) {
	// next twice as fast as prev -> +100% gain.
	if g := relGainPct(10, 5); !almostEqual(g, 100, 1e-12) {
		t.Errorf("relGainPct(10,5) = %v, want 100", g)
	}
	// no change -> 0%.
	if g := relGainPct(7, 7); !almostEqual(g, 0, 1e-12) {
		t.Errorf("relGainPct(7,7) = %v, want 0", g)
	}
	// regression -> negative.
	if g := relGainPct(5, 10); !almostEqual(g, -50, 1e-12) {
		t.Errorf("relGainPct(5,10) = %v, want -50", g)
	}
}

func TestMeanGainPct(t *testing.T) {
	a := []float64{10, 10}
	b := []float64{5, 10} // one app 2x faster, one unchanged
	if g := MeanGainPct(a, b); !almostEqual(g, 50, 1e-12) {
		t.Errorf("MeanGainPct = %v, want 50", g)
	}
}

func TestGeoMeanGainPct(t *testing.T) {
	a := []float64{10, 10}
	b := []float64{5, 20} // ratios 2 and 0.5 -> geomean 1 -> 0% gain
	if g := GeoMeanGainPct(a, b); !almostEqual(g, 0, 1e-9) {
		t.Errorf("GeoMeanGainPct = %v, want 0", g)
	}
}

func TestGainPctProperties(t *testing.T) {
	// For identical time vectors the gains must be exactly zero.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1
		}
		return almostEqual(MeanGainPct(xs, xs), 0, 1e-9) &&
			almostEqual(GeoMeanGainPct(xs, xs), 0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
