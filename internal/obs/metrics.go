package obs

import (
	"fmt"
	"sync/atomic"
)

// Provenance tiers of a chunk grant, measured from the consuming worker's
// home cluster to the shard the chunk was claimed from (see Tier).
const (
	// TierHome: the worker's own shard, or a shared (single-shard) pool.
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

// Grant records one chunk grant of n iterations at the given provenance
// tier (Tier). Owner-only.
func (c *Cell) Grant(n int64, tier int) {
	bump(&c.chunks, 1)
	bump(&c.iters, n)
	switch tier {
	case TierSamePkg:
		bump(&c.stealsSamePkg, 1)
	case TierCross:
		bump(&c.stealsCross, 1)
	default:
		bump(&c.stealsHome, 1)
	}
}

// Credit records the batched credit path's pool traffic for one scheduler
// call: the iterations it newly removed from the pool. No-op when zero (the
// common thread-local draw). Owner-only.
func (c *Cell) Credit(claimed int64) {
	if claimed != 0 {
		bump(&c.creditClaimed, claimed)
	}
}

// Busy adds chunk-execution time. Owner-only.
func (c *Cell) Busy(ns int64) { bump(&c.busyNs, ns) }

// Sched adds runtime-system (scheduler-call) time. Owner-only.
func (c *Cell) Sched(ns int64) { bump(&c.schedNs, ns) }

// Idle adds time spent without work (waiting for a pick, or parked at a
// barrier). Owner-only.
func (c *Cell) Idle(ns int64) { bump(&c.idleNs, ns) }

// Batch is a worker-local accumulator for the hottest loops. Go's atomic
// stores compile to serializing instructions (XCHG on amd64), so even
// uncontended owner-side bumps cost tens of nanoseconds per chunk at fine
// granularity; a hot loop instead adds into a Batch's plain fields —
// ordinary register/stack arithmetic — and applies it to its cell every few
// dozen chunks (and at every burst boundary), amortizing the atomic stores
// to a fraction of a chunk. Scrapers lag the owner by at most one
// unflushed batch; totals are exact after Apply at retirement.
type Batch struct {
	Chunks, Iters           int64
	Steals                  [3]int64 // indexed by tier (TierHome..TierCross)
	CreditClaimed           int64
	BusyNs, SchedNs, IdleNs int64
}

// Grant accumulates one chunk grant of n iterations at the given tier.
func (b *Batch) Grant(n int64, tier int) {
	b.Chunks++
	b.Iters += n
	b.Steals[tier]++
}

// Apply folds the batch into the cell and zeroes it. Owner-only, like every
// cell write; zero counters are skipped so an empty flush costs only the
// field checks.
func (c *Cell) Apply(b *Batch) {
	if b.Chunks != 0 {
		bump(&c.chunks, b.Chunks)
	}
	if b.Iters != 0 {
		bump(&c.iters, b.Iters)
	}
	if b.Steals[TierHome] != 0 {
		bump(&c.stealsHome, b.Steals[TierHome])
	}
	if b.Steals[TierSamePkg] != 0 {
		bump(&c.stealsSamePkg, b.Steals[TierSamePkg])
	}
	if b.Steals[TierCross] != 0 {
		bump(&c.stealsCross, b.Steals[TierCross])
	}
	if b.CreditClaimed != 0 {
		bump(&c.creditClaimed, b.CreditClaimed)
	}
	if b.BusyNs != 0 {
		bump(&c.busyNs, b.BusyNs)
	}
	if b.SchedNs != 0 {
		bump(&c.schedNs, b.SchedNs)
	}
	if b.IdleNs != 0 {
		bump(&c.idleNs, b.IdleNs)
	}
	*b = Batch{}
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

// plus returns the element-wise sum.
func (c Counters) plus(o Counters) Counters {
	return Counters{
		Chunks:        c.Chunks + o.Chunks,
		Iters:         c.Iters + o.Iters,
		StealsHome:    c.StealsHome + o.StealsHome,
		StealsSamePkg: c.StealsSamePkg + o.StealsSamePkg,
		StealsCross:   c.StealsCross + o.StealsCross,
		CreditClaimed: c.CreditClaimed + o.CreditClaimed,
		BusyNs:        c.BusyNs + o.BusyNs,
		SchedNs:       c.SchedNs + o.SchedNs,
		IdleNs:        c.IdleNs + o.IdleNs,
	}
}

// minus returns the element-wise difference.
func (c Counters) minus(o Counters) Counters {
	return Counters{
		Chunks:        c.Chunks - o.Chunks,
		Iters:         c.Iters - o.Iters,
		StealsHome:    c.StealsHome - o.StealsHome,
		StealsSamePkg: c.StealsSamePkg - o.StealsSamePkg,
		StealsCross:   c.StealsCross - o.StealsCross,
		CreditClaimed: c.CreditClaimed - o.CreditClaimed,
		BusyNs:        c.BusyNs - o.BusyNs,
		SchedNs:       c.SchedNs - o.SchedNs,
		IdleNs:        c.IdleNs - o.IdleNs,
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
		s.Counters = s.Counters.plus(w)
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
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{Counters: s.Counters.minus(prev.Counters)}
	d.OccupancyNs = make([]int64, len(s.OccupancyNs))
	copy(d.OccupancyNs, s.OccupancyNs)
	for t := range prev.OccupancyNs {
		if t < len(d.OccupancyNs) {
			d.OccupancyNs[t] -= prev.OccupancyNs[t]
		}
	}
	d.Workers = make([]Counters, len(s.Workers))
	copy(d.Workers, s.Workers)
	for i := range prev.Workers {
		if i < len(d.Workers) {
			d.Workers[i] = d.Workers[i].minus(prev.Workers[i])
		}
	}
	return d
}

// Add returns the element-wise sum of two snapshots (e.g. folding several
// loops' metrics into a fleet view). Slices are sized to the longer
// operand; neither operand is mutated.
func (s Snapshot) Add(o Snapshot) Snapshot {
	r := Snapshot{Counters: s.Counters.plus(o.Counters)}
	no := len(s.OccupancyNs)
	if len(o.OccupancyNs) > no {
		no = len(o.OccupancyNs)
	}
	r.OccupancyNs = make([]int64, no)
	copy(r.OccupancyNs, s.OccupancyNs)
	for t := range o.OccupancyNs {
		r.OccupancyNs[t] += o.OccupancyNs[t]
	}
	nw := len(s.Workers)
	if len(o.Workers) > nw {
		nw = len(o.Workers)
	}
	r.Workers = make([]Counters, nw)
	copy(r.Workers, s.Workers)
	for i := range o.Workers {
		r.Workers[i] = r.Workers[i].plus(o.Workers[i])
	}
	return r
}
