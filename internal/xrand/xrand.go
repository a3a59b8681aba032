// Package xrand implements a small, allocation-free, deterministic PRNG
// (SplitMix64) used everywhere the reproduction needs randomness: iteration
// cost noise, workload generation, and property tests. Unlike math/rand it
// has no global state, so two experiments with the same seed produce
// bit-identical streams regardless of package initialization order or
// goroutine interleaving.
package xrand

// Rand is a SplitMix64 generator. The zero value is a valid generator seeded
// with 0; use New to seed explicitly.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high-quality bits -> [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an approximately exponential variate with mean 1 generated via
// inverse transform on a uniform sample. Used for heavy-tailed iteration
// costs (leukocyte/particlefilter models).
func (r *Rand) Exp() float64 {
	u := r.Float64()
	// Avoid log(0).
	if u < 1e-15 {
		u = 1e-15
	}
	return -ln(u)
}

// Split derives an independent generator from the current one. Streams from
// the parent and child do not overlap for practical sequence lengths.
func (r *Rand) Split() *Rand {
	return &Rand{state: r.Uint64() ^ 0xDEADBEEFCAFEF00D}
}

// ln is a minimal natural-log implementation over (0,1] adequate for Exp.
// It uses the identity ln(u) = ln(m) + e*ln(2) after decomposing u = m*2^e
// with m in [1,2), then an atanh-series for ln(m). Max abs error < 1e-9 on
// (0,1], which is far below the noise this package models.
func ln(u float64) float64 {
	const ln2 = 0.6931471805599453
	e := 0
	for u < 1 {
		u *= 2
		e--
	}
	for u >= 2 {
		u /= 2
		e++
	}
	// u in [1,2): ln(u) = 2*atanh((u-1)/(u+1))
	t := (u - 1) / (u + 1)
	t2 := t * t
	s := t
	term := t
	for i := 3; i < 30; i += 2 {
		term *= t2
		s += term / float64(i)
	}
	return 2*s + float64(e)*ln2
}
