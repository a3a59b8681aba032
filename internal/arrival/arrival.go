// Package arrival implements the open-loop arrival processes of the
// service tier: request streams that tick on their own clock, independent
// of how fast the fleet drains them. This is the load model that separates
// a server benchmark from a replay — N simultaneous submissions all start
// at t=0 and measure only the fleet's drain rate, whereas an open-loop
// stream keeps arriving while the fleet is busy, so queueing delay (and,
// past saturation, unbounded backlog) becomes visible in the latency
// distribution.
//
// The processes are engine agnostic: a Process yields inter-arrival gaps in
// nanoseconds, and Times turns them into one list of arrival stamps. The
// real server (cmd/aidserve) sleeps until each stamp on the wall clock, so
// a submitter that falls behind catches up instead of thinning the stream,
// and the discrete-event engine (sim.RunLoops) admits each at its stamp via
// LoopSpec.Arrive. All randomness comes from the repository's deterministic
// PRNG (internal/xrand), so a seeded arrival sequence is bit-identical
// across runs and engines.
package arrival

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/xrand"
)

// Process generates one arrival stream. Implementations are stateful
// (they own their PRNG stream) and not safe for concurrent use; drive one
// process per stream.
type Process interface {
	// Gap returns the nanoseconds between the arrival at absolute stream
	// time nowNs and the next one. Implementations must return a positive
	// value so arrival times strictly increase.
	Gap(nowNs int64) int64
	// Name identifies the process in reports ("poisson", "bursty", ...).
	Name() string
}

// minGapNs floors every generated gap: a zero gap would make two arrivals
// carry the same timestamp, which the virtual engine's deterministic
// tie-breaks would then order arbitrarily with respect to the stream.
const minGapNs = 1

// expGap draws an exponential inter-arrival gap for ratePerSec using the
// inverse transform on rng's uniform stream.
func expGap(rng *xrand.Rand, ratePerSec float64) int64 {
	gap := int64(rng.Exp() / ratePerSec * 1e9)
	if gap < minGapNs {
		gap = minGapNs
	}
	return gap
}

// poisson is the memoryless baseline: exponentially distributed gaps with a
// constant mean rate — the standard open-loop load model.
type poisson struct {
	rate float64
	rng  *xrand.Rand
}

// newPoisson returns a Poisson process with the given mean arrival rate
// (arrivals per second) and PRNG seed.
func newPoisson(ratePerSec float64, seed uint64) (*poisson, error) {
	if ratePerSec <= 0 || math.IsInf(ratePerSec, 0) || math.IsNaN(ratePerSec) {
		return nil, fmt.Errorf("arrival: poisson rate %v must be a positive finite number", ratePerSec)
	}
	return &poisson{rate: ratePerSec, rng: xrand.New(seed)}, nil
}

// Name implements Process.
func (p *poisson) Name() string { return "poisson" }

// Gap implements Process.
func (p *poisson) Gap(int64) int64 { return expGap(p.rng, p.rate) }

// bursty is a two-state Markov-modulated Poisson process (MMPP): the stream
// alternates between a quiet state at the base rate and a burst state at
// burstFactor times the base rate, with exponentially distributed state
// dwell times. Bursts are what break percentile reporting that was tuned on
// smooth traffic — the p99 under MMPP load is dominated by the queue the
// burst leaves behind.
type bursty struct {
	base, burst float64 // arrivals/sec in each state
	meanDwellNs float64 // mean state dwell time
	inBurst     bool
	stateLeftNs float64 // remaining dwell in the current state
	rng         *xrand.Rand
}

// defaultBurstFactor is the default burst-to-base rate ratio of newBursty.
const defaultBurstFactor = 8

// defaultDwell is the default mean state dwell time of newBursty.
const defaultDwell = 100 * 1e6 // 100ms in ns

// newBursty returns an MMPP process whose quiet state arrives at
// ratePerSec and whose burst state arrives at burstFactor*ratePerSec
// (burstFactor 0 selects defaultBurstFactor), with mean state dwell time
// meanDwellNs (0 selects defaultDwell).
func newBursty(ratePerSec, burstFactor, meanDwellNs float64, seed uint64) (*bursty, error) {
	if ratePerSec <= 0 || math.IsInf(ratePerSec, 0) || math.IsNaN(ratePerSec) {
		return nil, fmt.Errorf("arrival: bursty base rate %v must be a positive finite number", ratePerSec)
	}
	if burstFactor == 0 {
		burstFactor = defaultBurstFactor
	}
	if burstFactor < 1 {
		return nil, fmt.Errorf("arrival: burst factor %v must be >= 1 (the burst state must not be slower than the base)", burstFactor)
	}
	if meanDwellNs == 0 {
		meanDwellNs = defaultDwell
	}
	if meanDwellNs < 0 {
		return nil, fmt.Errorf("arrival: negative mean dwell %v", meanDwellNs)
	}
	b := &bursty{base: ratePerSec, burst: ratePerSec * burstFactor, meanDwellNs: meanDwellNs, rng: xrand.New(seed)}
	b.stateLeftNs = b.rng.Exp() * meanDwellNs
	return b, nil
}

// Name implements Process.
func (b *bursty) Name() string { return "bursty" }

// Gap implements Process: the gap is drawn at the current state's rate, and
// the state advances by the consumed time (a gap that outlives the dwell
// flips the state; the modulation is applied per arrival, the standard
// discrete MMPP approximation).
func (b *bursty) Gap(int64) int64 {
	rate := b.base
	if b.inBurst {
		rate = b.burst
	}
	gap := expGap(b.rng, rate)
	b.stateLeftNs -= float64(gap)
	for b.stateLeftNs <= 0 {
		b.inBurst = !b.inBurst
		b.stateLeftNs += b.rng.Exp() * b.meanDwellNs
	}
	return gap
}

// diurnal modulates a Poisson stream with a sinusoidal rate ramp — the
// day/night cycle compressed to Period. The instantaneous rate swings
// between trough and peak:
//
//	rate(t) = trough + (peak-trough) * (1 - cos(2πt/period)) / 2
//
// starting at the trough (t=0). Gaps are drawn at the instantaneous rate
// (piecewise-homogeneous approximation, accurate while gaps are short
// against the period, which holds for any service-scale rate).
type diurnal struct {
	trough, peak float64
	periodNs     float64
	rng          *xrand.Rand
}

// newDiurnal returns a diurnal ramp between troughRate and peakRate
// arrivals/sec over the given cycle period.
func newDiurnal(troughRate, peakRate float64, periodNs int64, seed uint64) (*diurnal, error) {
	if troughRate <= 0 || math.IsInf(troughRate, 0) || math.IsNaN(troughRate) {
		return nil, fmt.Errorf("arrival: diurnal trough rate %v must be a positive finite number", troughRate)
	}
	if peakRate < troughRate || math.IsInf(peakRate, 0) || math.IsNaN(peakRate) {
		return nil, fmt.Errorf("arrival: diurnal peak rate %v must be finite and >= trough rate %v", peakRate, troughRate)
	}
	if periodNs <= 0 {
		return nil, fmt.Errorf("arrival: diurnal period %dns must be positive", periodNs)
	}
	return &diurnal{trough: troughRate, peak: peakRate, periodNs: float64(periodNs), rng: xrand.New(seed)}, nil
}

// Name implements Process.
func (d *diurnal) Name() string { return "diurnal" }

// Rate returns the instantaneous arrival rate at stream time nowNs.
func (d *diurnal) Rate(nowNs int64) float64 {
	phase := 2 * math.Pi * math.Mod(float64(nowNs), d.periodNs) / d.periodNs
	return d.trough + (d.peak-d.trough)*(1-math.Cos(phase))/2
}

// Gap implements Process.
func (d *diurnal) Gap(nowNs int64) int64 { return expGap(d.rng, d.Rate(nowNs)) }

// New builds a process from its CLI name. ratePerSec is the mean (poisson),
// base (bursty) or trough (diurnal) rate; the remaining shape parameters
// take their defaults (bursty: defaultBurstFactor, defaultDwell; diurnal:
// peak = 4x trough over a 1s period, a full cycle in a short smoke run).
func New(name string, ratePerSec float64, seed uint64) (Process, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "poisson":
		return newPoisson(ratePerSec, seed)
	case "bursty", "mmpp":
		return newBursty(ratePerSec, 0, 0, seed)
	case "diurnal":
		return newDiurnal(ratePerSec, 4*ratePerSec, int64(1e9), seed)
	}
	return nil, fmt.Errorf("arrival: unknown process %q (want poisson, bursty or diurnal)", name)
}

// Times materializes the arrival stamps of p that fall inside
// [startNs, startNs+durationNs), relative to the stream's own clock. The
// first arrival is one gap after startNs (the window opens empty). Both of
// aidserve's engines read this form of the stream: the real one sleeps
// until each stamp, the virtual one feeds them to sim.LoopSpec.Arrive.
func Times(p Process, startNs, durationNs int64) []int64 {
	var out []int64
	end := startNs + durationNs
	for t := startNs + p.Gap(startNs); t < end; t += p.Gap(t) {
		out = append(out, t)
	}
	return out
}
