package rt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestRegistryMetricsCounters checks the counter wiring end to end: a loop
// run on a metrics-enabled registry publishes a snapshot whose totals match
// the loop's ground truth (every iteration counted exactly once, busy time
// accumulated, occupancy conserved across core types), and the fleet-wide
// MetricsSnapshot view agrees with the per-loop one.
func TestRegistryMetricsCounters(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	const n = 5000
	var sink atomic.Int64
	l, err := reg.Submit(LoopRequest{N: n, Schedule: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 8, Major: 64},
		Body: func(_ int, lo, hi int64) { sink.Add(hi - lo) }})
	if err != nil {
		t.Fatal(err)
	}
	st := l.Wait()
	if sink.Load() != n {
		t.Fatalf("covered %d iterations, want %d", sink.Load(), n)
	}
	if st.Metrics == nil {
		t.Fatal("LoopStats.Metrics is nil on a metrics-enabled registry")
	}
	m := st.Metrics
	if m.Iters != n {
		t.Errorf("snapshot Iters = %d, want %d", m.Iters, n)
	}
	if m.Chunks <= 0 {
		t.Errorf("snapshot Chunks = %d, want > 0", m.Chunks)
	}
	if m.BusyNs <= 0 {
		t.Errorf("snapshot BusyNs = %d, want > 0", m.BusyNs)
	}
	if got := len(m.Workers); got != reg.NThreads() {
		t.Fatalf("snapshot has %d worker rows, want %d", got, reg.NThreads())
	}
	var witers, wbusy int64
	for _, w := range m.Workers {
		witers += w.Iters
		wbusy += w.BusyNs
	}
	if witers != m.Iters {
		t.Errorf("per-worker iters sum to %d, total says %d", witers, m.Iters)
	}
	var occ int64
	for _, o := range m.OccupancyNs {
		occ += o
	}
	if occ != wbusy {
		t.Errorf("per-type occupancy sums to %d ns, per-worker busy to %d ns", occ, wbusy)
	}
	if steals := m.StealsHome + m.StealsSamePkg + m.StealsCross; steals > m.Chunks {
		t.Errorf("tier buckets count %d grants, more than the %d chunks granted", steals, m.Chunks)
	}
	if st.End <= st.Start {
		t.Errorf("loop bounds [%d, %d] not increasing", st.Start, st.End)
	}
	snap := reg.MetricsSnapshot()
	if snap.Iters != n {
		t.Errorf("fleet snapshot Iters = %d, want %d (one retired loop)", snap.Iters, n)
	}
	if snap.Chunks != m.Chunks {
		t.Errorf("fleet snapshot Chunks = %d, loop says %d", snap.Chunks, m.Chunks)
	}
}

// TestRegistryMetricsTileCapture pins the conservation law the chunk loop's
// shared stamps give for free. Metrics and capture consume the same two
// clock reads per chunk, and a chunk's end is the next chunk's start, so
// within a burst (a lone loop is served in one) every worker's timeline is
// gapless from its first scheduler call to the barrier, and its counters
// equal the tape's interval sums to the nanosecond.
func TestRegistryMetricsTileCapture(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// The body yields so every worker serves chunks even on one CPU.
	l, err := reg.Submit(LoopRequest{N: 4000, Schedule: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5},
		Capture: true, Body: func(_ int, _, _ int64) { runtime.Gosched() }})
	if err != nil {
		t.Fatal(err)
	}
	st := l.Wait()
	if len(st.Events) < 100 {
		t.Fatalf("captured %d events, want a multi-chunk loop", len(st.Events))
	}
	for tid := 0; tid < reg.NThreads(); tid++ {
		ivs := st.Trace.Intervals(tid)
		for k := 0; k+1 < len(ivs); k++ {
			if ivs[k].End != ivs[k+1].Start {
				t.Fatalf("worker %d: gap between interval %d %+v and %d %+v", tid, k, ivs[k], k+1, ivs[k+1])
			}
		}
		w := st.Metrics.Workers[tid]
		if tape := st.Trace.TimeIn(tid, trace.Sched) + st.Trace.TimeIn(tid, trace.Running); w.SchedNs+w.BusyNs != tape {
			t.Errorf("worker %d: SchedNs %d + BusyNs %d != %d ns of Sched+Running intervals", tid, w.SchedNs, w.BusyNs, tape)
		}
		if sync := st.Trace.TimeIn(tid, trace.Sync); w.IdleNs != sync {
			t.Errorf("worker %d: IdleNs %d != %d ns of Sync intervals", tid, w.IdleNs, sync)
		}
	}
}

// TestRegistryMetricsDisabled checks the off switch: without
// RegistryConfig.Metrics no snapshot is attached and the fleet view is the
// zero Snapshot.
func TestRegistryMetricsDisabled(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	l, err := reg.Submit(LoopRequest{N: 100, Body: func(_ int, _, _ int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	if st := l.Wait(); st.Metrics != nil {
		t.Error("LoopStats.Metrics set on a registry built without Metrics")
	}
	if snap := reg.MetricsSnapshot(); snap.Iters != 0 || snap.Workers != nil {
		t.Errorf("MetricsSnapshot = %+v, want zero Snapshot when disabled", snap)
	}
}

// TestRegistryMetricsSteadyStateAllocs is TestRegistrySteadyStateAllocs with
// the counters switched on: the metrics layer rides the same lock-free hot
// path and must not add a single steady-state allocation — this is the gate
// behind the "zero-alloc with metrics enabled" guarantee; it needs a run
// without the race detector (`go test ./...`, the second half of `make race`).
func TestRegistryMetricsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg, err := NewRegistry(RegistryConfig{NThreads: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	var sink atomic.Int64
	run := func(n int64) {
		a, err := reg.Submit(LoopRequest{N: n, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 4},
			Body: func(_ int, lo, hi int64) { sink.Add(hi - lo) }})
		if err != nil {
			t.Fatal(err)
		}
		b, err := reg.Submit(LoopRequest{N: n, Schedule: core.Schedule{Kind: core.KindAIDHybrid, Chunk: 1},
			Body: func(_ int, lo, hi int64) { sink.Add(hi - lo) }})
		if err != nil {
			t.Fatal(err)
		}
		a.Wait()
		b.Wait()
	}
	run(50000) // warm: scratch growth, policy maps, timer setup

	const n = 100000 // ~25k dynamic chunks + ~100k hybrid chunks per run
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(n)
	runtime.ReadMemStats(&m1)
	delta := m1.Mallocs - m0.Mallocs
	// Same budget as the metrics-off gate: the per-submission constants now
	// include two obs.Metrics cell arrays and two barrier-release snapshots
	// (a few dozen objects); the per-chunk counter bumps must add zero.
	if delta > 4000 {
		t.Errorf("metrics-on steady-state run of ~125k chunks allocated %d objects, want < 4000 (counter bumps must not allocate)", delta)
	}
	if got := sink.Load(); got != 2*50000+2*n {
		t.Fatalf("covered %d iterations, want %d", got, 2*50000+2*n)
	}
}

// TestRegistryMetricsFleetConservation pins busy + sched + idle <= wall per
// worker on a fleet: a worker that retires from a loop early and waits in the
// fleet for the next pick is idle once, in the fleet's cell, not also in the
// loop's. Four workers run a static loop of four iterations whose tid-0 chunk
// sleeps 50 ms, so workers 1-3 wait about 50 ms for the barrier.
func TestRegistryMetricsFleetConservation(t *testing.T) {
	start := time.Now()
	reg, err := NewRegistry(RegistryConfig{NThreads: 4, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := reg.Submit(LoopRequest{N: 4, Body: func(tid int, _, _ int64) {
		if tid == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	l.Wait()
	reg.Close()
	life := time.Since(start).Nanoseconds()
	for tid, w := range reg.MetricsSnapshot().Workers {
		if sum := w.BusyNs + w.SchedNs + w.IdleNs; sum > life {
			t.Errorf("worker %d: busy %d + sched %d + idle %d = %d ns, more than the registry's %d ns life",
				tid, w.BusyNs, w.SchedNs, w.IdleNs, sum, life)
		}
	}
}
