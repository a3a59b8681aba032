package obs

import (
	"fmt"
	"sync/atomic"
)

// Provenance tiers of a chunk grant, measured from the consuming worker's
// home cluster to the shard the chunk was claimed from (see Tier).
const (
	// TierHome: the worker's own shard, or a type-shared pool structure.
	TierHome = 0
	// TierSamePkg: a foreign shard whose owner cluster shares the package.
	TierSamePkg = 1
	// TierCross: a foreign shard across a package boundary.
	TierCross = 2
)

// Tier buckets a chunk's provenance by topology distance: dist is the
// platform's cluster-distance matrix (amp.Platform.TypeDist), own the
// consuming worker's home cluster, origin the chunk's provenance
// (core.Assign.Origin; negative means a shared pool, charged as home —
// there is no remote line to have crossed). A nil or short matrix treats
// every foreign origin as same-package, the topology-free default.
func Tier(dist [][]int, own, origin int) int {
	if origin < 0 || origin == own {
		return TierHome
	}
	if dist == nil || own >= len(dist) || origin >= len(dist[own]) {
		return TierSamePkg
	}
	switch dist[own][origin] {
	case 0:
		return TierHome
	case 1:
		return TierSamePkg
	default:
		return TierCross
	}
}

// Cell is one worker's private counter block. All fields are atomics so
// concurrent scrapers (Snapshot) read torn-free values, but each counter
// has a single writer — the owning worker — so updates are Load+Store
// pairs, not LOCK-prefixed RMWs (doc.go, invariant 1). The block is padded
// to exactly two cache lines (invariant 2, pinned by TestCellLayout).
type Cell struct {
	chunks        atomic.Int64
	iters         atomic.Int64
	stealsHome    atomic.Int64
	stealsSamePkg atomic.Int64
	stealsCross   atomic.Int64
	creditClaimed atomic.Int64
	busyNs        atomic.Int64
	schedNs       atomic.Int64
	idleNs        atomic.Int64
	_             [56]byte
}

// bump is the owner-side increment: a plain load plus a plain store of the
// same word, legal because the owner is the only writer (invariant 1).
func bump(c *atomic.Int64, n int64) { c.Store(c.Load() + n) }

// Idle adds time spent without work (waiting for a pick, or parked at a
// barrier). Owner-only, or the quiescent merge of a barrier release.
func (c *Cell) Idle(ns int64) { bump(&c.idleNs, ns) }

// batch is a lane's accumulator (ledger.go). Go's atomic stores compile to
// serializing instructions (XCHG on amd64), so even uncontended owner-side
// bumps cost tens of nanoseconds per chunk at fine granularity; a lane
// instead adds into its batch's plain fields and applies the batch to its
// cell every flushEvery chunks and whenever its worker leaves the loop,
// amortizing the atomic stores to a fraction of a chunk. Scrapers lag the
// owner by at most one unflushed batch; totals are exact after the apply at
// retirement.
type batch struct {
	Chunks, Iters   int64
	Steals          [3]int64 // indexed by tier (TierHome..TierCross)
	CreditClaimed   int64
	BusyNs, SchedNs int64
}

// grant accumulates one chunk grant of n iterations at the given tier.
func (b *batch) grant(n int64, tier int) {
	b.Chunks++
	b.Iters += n
	b.Steals[tier]++
}

// apply folds the batch into the cell and zeroes it. Owner-only, like every
// cell write; zero counters are skipped so an empty flush costs only the
// field checks.
func (c *Cell) apply(b *batch) {
	for _, f := range [...]struct {
		c *atomic.Int64
		n int64
	}{
		{&c.chunks, b.Chunks}, {&c.iters, b.Iters},
		{&c.stealsHome, b.Steals[TierHome]}, {&c.stealsSamePkg, b.Steals[TierSamePkg]}, {&c.stealsCross, b.Steals[TierCross]},
		{&c.creditClaimed, b.CreditClaimed}, {&c.busyNs, b.BusyNs}, {&c.schedNs, b.SchedNs},
	} {
		if f.n != 0 {
			bump(f.c, f.n)
		}
	}
	*b = batch{}
}

// load scrapes the cell into plain counters (concurrent-scraper safe).
func (c *Cell) load() Counters {
	return Counters{
		Chunks:        c.chunks.Load(),
		Iters:         c.iters.Load(),
		StealsHome:    c.stealsHome.Load(),
		StealsSamePkg: c.stealsSamePkg.Load(),
		StealsCross:   c.stealsCross.Load(),
		CreditClaimed: c.creditClaimed.Load(),
		BusyNs:        c.busyNs.Load(),
		SchedNs:       c.schedNs.Load(),
		IdleNs:        c.idleNs.Load(),
	}
}

// Counters is one scraped counter set — a cell's, or a whole fleet's sum.
type Counters struct {
	// Chunks counts scheduler grants; Iters the iterations they carried.
	Chunks, Iters int64
	// StealsHome/StealsSamePkg/StealsCross bucket Chunks by provenance
	// tier (their sum equals Chunks).
	StealsHome, StealsSamePkg, StealsCross int64
	// CreditClaimed is the batched credit path's pool traffic in
	// iterations (pool.CreditSteal).
	CreditClaimed int64
	// BusyNs/SchedNs/IdleNs split the worker's time: chunk execution,
	// runtime-system calls, and no-work waits.
	BusyNs, SchedNs, IdleNs int64
}

// plus returns c + sign·o, element-wise: the sum for sign 1, the
// difference for -1.
func (c Counters) plus(o Counters, sign int64) Counters {
	return Counters{
		Chunks:        c.Chunks + sign*o.Chunks,
		Iters:         c.Iters + sign*o.Iters,
		StealsHome:    c.StealsHome + sign*o.StealsHome,
		StealsSamePkg: c.StealsSamePkg + sign*o.StealsSamePkg,
		StealsCross:   c.StealsCross + sign*o.StealsCross,
		CreditClaimed: c.CreditClaimed + sign*o.CreditClaimed,
		BusyNs:        c.BusyNs + sign*o.BusyNs,
		SchedNs:       c.SchedNs + sign*o.SchedNs,
		IdleNs:        c.IdleNs + sign*o.IdleNs,
	}
}

// Steals returns the foreign-provenance chunk count (same-package plus
// cross-package; home-tier grants are not steals).
func (c Counters) Steals() int64 { return c.StealsSamePkg + c.StealsCross }

// Metrics is one fleet's (or one loop's) live counter set: a padded Cell
// per worker plus the worker-to-home-cluster mapping that drives the
// per-core-type occupancy rollup.
type Metrics struct {
	types  []int
	ntypes int
	cells  []Cell
}

// New builds a Metrics for nworkers workers over ntypes core types;
// typeOf maps a worker to its home cluster (nil maps every worker to 0).
func New(nworkers, ntypes int, typeOf func(tid int) int) *Metrics {
	if nworkers <= 0 {
		panic(fmt.Sprintf("obs: non-positive worker count %d", nworkers))
	}
	if ntypes <= 0 {
		ntypes = 1
	}
	m := &Metrics{
		types:  make([]int, nworkers),
		ntypes: ntypes,
		cells:  make([]Cell, nworkers),
	}
	for tid := range m.types {
		if typeOf != nil {
			if t := typeOf(tid); t >= 0 && t < ntypes {
				m.types[tid] = t
			}
		}
	}
	return m
}

// Cell returns worker tid's counter block. Only worker tid may write
// through it (doc.go, invariant 1).
func (m *Metrics) Cell(tid int) *Cell { return &m.cells[tid] }

// Snapshot scrapes every cell: the fleet-wide totals, the per-worker
// breakdown, and busy time rolled up by each worker's home core type. Safe
// to call from any goroutine while workers keep counting; see doc.go,
// invariant 4, for what "consistent" means here.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		OccupancyNs: make([]int64, m.ntypes),
		Workers:     make([]Counters, len(m.cells)),
	}
	for i := range m.cells {
		w := m.cells[i].load()
		s.Workers[i] = w
		s.Counters = s.Counters.plus(w, 1)
		s.OccupancyNs[m.types[i]] += w.BusyNs
	}
	return s
}

// Snapshot is one scraped view of a Metrics: fleet totals, the busy-time
// occupancy per core type, and the per-worker counter sets.
type Snapshot struct {
	Counters
	// OccupancyNs is busy time summed by worker home core type — the
	// per-core-type occupancy signal.
	OccupancyNs []int64
	// Workers is the per-worker breakdown, indexed by tid.
	Workers []Counters
}

// Delta returns the change from prev to s, element-wise. Both snapshots
// should come from the same Metrics (or Add-compatible aggregates); every
// counter of the result is non-negative then (invariant 4).
func (s Snapshot) Delta(prev Snapshot) Snapshot { return s.plus(prev, -1) }

// Add returns the element-wise sum of two snapshots (e.g. folding several
// loops' metrics into a fleet view).
func (s Snapshot) Add(o Snapshot) Snapshot { return s.plus(o, 1) }

// plus returns s + sign·o, element-wise, in new slices sized to the longer
// operand.
func (s Snapshot) plus(o Snapshot, sign int64) Snapshot {
	r := Snapshot{Counters: s.Counters.plus(o.Counters, sign),
		OccupancyNs: make([]int64, max(len(s.OccupancyNs), len(o.OccupancyNs))),
		Workers:     make([]Counters, max(len(s.Workers), len(o.Workers)))}
	copy(r.OccupancyNs, s.OccupancyNs)
	for t, ns := range o.OccupancyNs {
		r.OccupancyNs[t] += sign * ns
	}
	copy(r.Workers, s.Workers)
	for i, w := range o.Workers {
		r.Workers[i] = r.Workers[i].plus(w, sign)
	}
	return r
}
