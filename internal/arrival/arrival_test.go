package arrival

import (
	"math"
	"testing"
)

// meanGapNs drives p for n arrivals and returns the mean inter-arrival gap.
func meanGapNs(t *testing.T, p Process, n int) float64 {
	t.Helper()
	var now, sum int64
	for i := 0; i < n; i++ {
		g := p.Gap(now)
		if g <= 0 {
			t.Fatalf("%s: non-positive gap %d at arrival %d", p.Name(), g, i)
		}
		now += g
		sum += g
	}
	return float64(sum) / float64(n)
}

// TestPoissonMeanRate checks the exponential gaps against their nominal
// mean: at 1000 arrivals/s the mean gap must be 1ms within a 10% sampling
// band over 20k draws.
func TestPoissonMeanRate(t *testing.T) {
	p, err := newPoisson(1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	mean := meanGapNs(t, p, 20000)
	want := 1e6 // 1ms
	if mean < 0.9*want || mean > 1.1*want {
		t.Fatalf("poisson mean gap %.0fns outside [%.0f, %.0f]", mean, 0.9*want, 1.1*want)
	}
}

// TestDeterministicSeeds pins that equal seeds yield bit-identical streams
// and different seeds yield different ones, for every process kind.
func TestDeterministicSeeds(t *testing.T) {
	for _, name := range []string{"poisson", "bursty", "diurnal"} {
		build := func(seed uint64) Process {
			p, err := New(name, 500, seed)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		a, b, c := build(7), build(7), build(8)
		var now int64
		diverged := false
		for i := 0; i < 1000; i++ {
			ga, gb := a.Gap(now), b.Gap(now)
			if ga != gb {
				t.Fatalf("%s: same seed diverged at arrival %d: %d vs %d", name, i, ga, gb)
			}
			if c.Gap(now) != ga {
				diverged = true
			}
			now += ga
		}
		if !diverged {
			t.Fatalf("%s: seeds 7 and 8 produced identical 1000-gap streams", name)
		}
	}
}

// TestBurstyMeanBetweenStates: the MMPP spends half its time in each state,
// so the long-run mean gap must sit strictly between the pure base-rate and
// pure burst-rate means.
func TestBurstyMeanBetweenStates(t *testing.T) {
	p, err := newBursty(100, 8, 50e6, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean := meanGapNs(t, p, 50000)
	baseMean := 1e9 / 100.0 // 10ms
	burstMean := 1e9 / 800.0
	if mean >= baseMean || mean <= burstMean {
		t.Fatalf("bursty mean gap %.0fns not strictly between burst %.0f and base %.0f", mean, burstMean, baseMean)
	}
}

// TestDiurnalRateEnvelope pins the instantaneous rate to its trough/peak
// envelope: the trough at phase 0, the peak at half period, and every
// sampled point within [trough, peak].
func TestDiurnalRateEnvelope(t *testing.T) {
	d, err := newDiurnal(50, 200, int64(1e9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := d.Rate(0); math.Abs(r-50) > 1e-9 {
		t.Fatalf("rate at phase 0 = %v, want trough 50", r)
	}
	if r := d.Rate(int64(5e8)); math.Abs(r-200) > 1e-9 {
		t.Fatalf("rate at half period = %v, want peak 200", r)
	}
	for ns := int64(0); ns < 2e9; ns += 1e7 {
		if r := d.Rate(ns); r < 50-1e-9 || r > 200+1e-9 {
			t.Fatalf("rate at %dns = %v outside [50, 200]", ns, r)
		}
	}
}

// TestTimesWindow: materialized stamps are strictly increasing, inside the
// window, and roughly rate*duration many.
func TestTimesWindow(t *testing.T) {
	p, err := newPoisson(2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	start, dur := int64(1e6), int64(5e8) // 0.5s at 2000/s -> ~1000 arrivals
	ts := Times(p, start, dur)
	if n := len(ts); n < 800 || n > 1200 {
		t.Fatalf("got %d arrivals in a 0.5s window at 2000/s, want ~1000", n)
	}
	prev := start
	for i, at := range ts {
		if at <= prev {
			t.Fatalf("arrival %d at %dns does not advance past %dns", i, at, prev)
		}
		if at >= start+dur {
			t.Fatalf("arrival %d at %dns outside window end %dns", i, at, start+dur)
		}
		prev = at
	}
}

// TestNewRejectsBadSpecs covers the constructor validation paths.
func TestNewRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		rate float64
	}{
		{"poisson", 0},
		{"poisson", -5},
		{"poisson", math.Inf(1)},
		{"poisson", math.NaN()},
		{"bursty", 0},
		{"diurnal", -1},
		{"warp", 100},
	}
	for _, c := range cases {
		if _, err := New(c.name, c.rate, 1); err == nil {
			t.Errorf("New(%q, %v) accepted an invalid spec", c.name, c.rate)
		}
	}
	if _, err := newBursty(100, 0.5, 0, 1); err == nil {
		t.Error("newBursty accepted burst factor < 1")
	}
	if _, err := newDiurnal(100, 50, int64(1e9), 1); err == nil {
		t.Error("newDiurnal accepted peak < trough")
	}
	if _, err := newDiurnal(100, 200, 0, 1); err == nil {
		t.Error("newDiurnal accepted zero period")
	}
}
