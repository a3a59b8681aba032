package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync/atomic"

	"repro/internal/amp"
	"repro/internal/fair"
	"repro/internal/rt"
)

// platformFile is the benchmark's own machine: Platform A's two core types,
// one core each. Two workers is what the 2-CPU box runs without
// oversubscription (see README, "Fleet size").
const platformFile = "platforms/amp-1b1s.json"

// wantSlowdowns are the per-worker throttle factors the 1B+1S platform must
// give under the default profile; a fleet that disagrees would measure a
// different machine.
var wantSlowdowns = []float64{1.0, 1.9}

// loadPlatform reads the benchmark platform from dir.
func loadPlatform(dir string) (*amp.Platform, error) {
	return amp.LoadFile(filepath.Join(dir, platformFile))
}

// newFleet builds the 2-worker registry every real-engine workload runs on
// and checks its shape.
func newFleet(pl *amp.Platform, metrics bool) (*rt.Registry, error) {
	r, err := rt.NewRegistry(rt.RegistryConfig{
		Platform: pl,
		Policy:   fair.NewWeightedRoundRobin(0),
		Metrics:  metrics,
	})
	if err != nil {
		return nil, err
	}
	if r.NThreads() != len(wantSlowdowns) {
		r.Close()
		return nil, fmt.Errorf("fleet has %d workers, want %d", r.NThreads(), len(wantSlowdowns))
	}
	for tid, want := range wantSlowdowns {
		if got := r.Slowdown(tid); math.Abs(got-want) > 0.05 {
			r.Close()
			return nil, fmt.Errorf("worker %d slowdown %.3f, want about %.1f", tid, got, want)
		}
	}
	return r, nil
}

// mustSchedule parses a schedule the benchmark itself wrote down.
func mustSchedule(text string) rt.Schedule {
	s, err := rt.ParseSchedule(text)
	if err != nil {
		panic(fmt.Sprintf("bench: bad built-in schedule %q: %v", text, err))
	}
	return s
}

// cell is one worker's private accumulator for one loop, padded to a cache
// line: bodies never write shared state, so the benchmark does not time its
// own bookkeeping. count and sum give the exactly-once check in O(1) per
// chunk; calls counts chunks; acc keeps the arithmetic alive.
type cell struct {
	count int64
	sum   int64
	calls int64
	acc   uint64
	_     [32]byte
}

// Body weights: multiply-add steps per iteration.
const (
	fineSteps   = 14   // about 20 ns
	serveSteps  = 250  // about 0.4 µs
	coarseSteps = 3000 // about 4 µs
)

func spin(x uint64, steps int) uint64 {
	for k := 0; k < steps; k++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// newBody returns a loop body doing steps of arithmetic per iteration and
// accumulating into cells[tid].
func newBody(cells []cell, steps int) func(tid int, lo, hi int64) {
	return func(tid int, lo, hi int64) {
		c := &cells[tid]
		x := c.acc
		for i := lo; i < hi; i++ {
			x = spin(x+uint64(i), steps)
		}
		n := hi - lo
		c.acc = x
		c.count += n
		c.sum += (lo + hi - 1) * n / 2
		c.calls++
	}
}

// stampedBody is newBody that also records, once, when the loop's first
// chunk started (traced pass only: the stamp is the one shared write).
func stampedBody(cells []cell, steps int, first *atomic.Int64, clock func() int64) func(tid int, lo, hi int64) {
	inner := newBody(cells, steps)
	return func(tid int, lo, hi int64) {
		if first.Load() == 0 {
			first.CompareAndSwap(0, clock())
		}
		inner(tid, lo, hi)
	}
}

// coveredOnce reports whether the cells account for every iteration of [0, n)
// exactly once: the counts add up to n and the index sums to n(n-1)/2.
func coveredOnce(cells []cell, n int64) bool {
	var count, sum int64
	for i := range cells {
		count += cells[i].count
		sum += cells[i].sum
	}
	return count == n && sum == n*(n-1)/2
}

func chunkCalls(cells []cell) int64 {
	var calls int64
	for i := range cells {
		calls += cells[i].calls
	}
	return calls
}

func resetCells(cells []cell) {
	for i := range cells {
		cells[i] = cell{}
	}
}
