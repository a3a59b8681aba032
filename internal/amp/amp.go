// Package amp models single-ISA asymmetric multicore processors (AMPs): core
// types with different frequency, microarchitecture (in-order vs
// out-of-order IPC), duty cycle, and per-cluster last-level caches with a
// contention model.
//
// The package reproduces the two evaluation platforms from the paper (§5):
//
//   - Platform A: the Odroid-XU4 board — an ARM big.LITTLE with four
//     out-of-order Cortex-A15 cores at 2.0 GHz sharing a 2 MB LLC and four
//     in-order Cortex-A7 cores at 1.5 GHz sharing a 512 KB LLC.
//   - Platform B: an emulated AMP built from an Intel Xeon E5-2620 v4 —
//     four "fast" cores at 2.1 GHz and four "slow" cores throttled to the
//     1.2 GHz P-state at 87.5% duty cycle, all sharing a 20 MB LLC.
//
// The central quantity in the paper is the speedup factor (SF): the ratio of
// completion times of the same code on a small vs a big core. SF is loop
// specific (Fig. 2) because it depends on the loop's instruction mix. Here
// the mix is described by a Profile, and SF *emerges* from the speed model —
// the runtime system never reads it and must estimate it online, exactly as
// libgomp must on real hardware.
//
// # Platform zoo and platform files
//
// Beyond the paper's two machines the package keeps a registry of named
// platforms — the "zoo" — so every command and experiment can run on any of
// them. Lookup resolves a registry name, Names lists them, and Resolve
// additionally accepts a path to a platform file. The current registry:
//
//	A        Odroid-XU4 big.LITTLE (4x Cortex-A15 + 4x Cortex-A7)
//	B        emulated Xeon E5-2620 v4 AMP (4 fast + 4 throttled cores)
//	Tri      DynamIQ-style tri-gear (2 prime + 3 middle + 3 little)
//	Cluster  dual-package big.LITTLE, two big + two little clusters with
//	         private per-cluster LLCs (exercises the cross-package tier)
//	Hybrid   P/E-core hybrid desktop (4 P cores + two 4-core E clusters)
//
// A platform file is the JSON encoding produced by Platform.EncodeJSON: an
// object with "Name" (string), "Clusters" (ordered big-first; each cluster
// carries its CoreType, NumCores, LLCMB, MissSlope, SatGBps and Package) and
// "Overhead" (the runtime cost constants). LoadFile rebuilds the platform
// through New — which fills defaulted energy and tiered-locality fields —
// and rejects files that fail Validate (zero-core clusters,
// non-finite frequencies, clusters not ordered big-first, ...).
package amp

import (
	"fmt"
	"math"
	"strings"
)

// Profile characterizes the instruction mix of a piece of code (one parallel
// loop, or a serial phase). It determines the per-core-type execution speed
// and therefore the loop's big-to-small speedup factor.
type Profile struct {
	// ILP in [0,1] is the fraction of exploitable instruction-level
	// parallelism. Out-of-order big cores convert high ILP into high IPC;
	// in-order small cores mostly cannot.
	ILP float64
	// MemIntensity in [0,1] is the fraction of execution that is bound on
	// the memory hierarchy rather than the pipeline. Memory-bound code sees
	// small big-to-small speedups (DRAM is symmetric).
	MemIntensity float64
	// FootprintMB is the per-thread working-set size. When the sum of
	// active footprints exceeds a cluster's LLC, extra misses push the
	// effective memory intensity up (the blackscholes effect of §5C).
	FootprintMB float64
}

// Validate reports whether the profile fields are inside their domains.
func (p Profile) Validate() error {
	if p.ILP < 0 || p.ILP > 1 {
		return fmt.Errorf("amp: ILP %v out of [0,1]", p.ILP)
	}
	if p.MemIntensity < 0 || p.MemIntensity > 1 {
		return fmt.Errorf("amp: MemIntensity %v out of [0,1]", p.MemIntensity)
	}
	if p.FootprintMB < 0 {
		return fmt.Errorf("amp: negative FootprintMB %v", p.FootprintMB)
	}
	return nil
}

// CoreType describes one kind of core on the platform.
type CoreType struct {
	Name string
	// FreqGHz is the nominal clock frequency.
	FreqGHz float64
	// DutyCycle in (0,1] scales effective frequency (Platform B throttles
	// slow cores to 87.5% duty in addition to the frequency reduction).
	DutyCycle float64
	// IPCScalar is instructions/cycle for serial-dependent (ILP=0) code.
	IPCScalar float64
	// IPCMax is instructions/cycle for fully parallel (ILP=1) code; the gap
	// to IPCScalar captures the out-of-order window advantage.
	IPCMax float64
	// MemGBps is the effective units/ns throughput for fully memory-bound
	// code on an otherwise idle cluster (covers prefetching quality and the
	// frequency-scaled cache hierarchy).
	MemGBps float64
	// ActiveW is the per-core power draw in Watts while executing; IdleW the
	// draw while parked (retired from a loop but inside the barrier). They
	// feed the per-cluster energy model the simulator surfaces as Joules.
	// Zero values are filled by New with frequency-scaled defaults.
	ActiveW float64
	IdleW   float64
}

// IPC returns instructions per cycle for code with the given ILP. The
// response is cubic: the out-of-order window pays off superlinearly, so only
// code with pervasive exploitable ILP approaches IPCMax. This concentrates
// large big-core advantages in a minority of loops, matching Fig. 2's
// distribution (most loops cluster at modest SFs; a few reach 7-8x).
func (ct CoreType) IPC(ilp float64) float64 {
	x := ilp * ilp * ilp
	return ct.IPCScalar + (ct.IPCMax-ct.IPCScalar)*x
}

// ComputeSpeed returns work units per nanosecond for pure compute code.
func (ct CoreType) ComputeSpeed(ilp float64) float64 {
	return ct.FreqGHz * ct.DutyCycle * ct.IPC(ilp)
}

// Cluster is a set of identical cores sharing a last-level cache.
type Cluster struct {
	Type CoreType
	// NumCores in this cluster.
	NumCores int
	// LLCMB is the shared last-level cache size.
	LLCMB float64
	// MissSlope controls how quickly LLC over-subscription converts compute
	// time into memory time: extraMiss = clamp(MissSlope*(occupancy-1)).
	MissSlope float64
	// SatGBps models DRAM-bandwidth saturation: with k active threads in
	// the cluster, per-thread memory throughput is capped at SatGBps/k.
	// Crucially the cap is a property of the DRAM, not of the core type, so
	// at saturation big and small cores see the *same* memory speed — the
	// equalizer that compresses effective loop SFs at 8 threads far below
	// their offline (single-thread) values. This is the second contention
	// mechanism behind §5C: offline-collected SF values overestimate the
	// big-core advantage because single-thread runs never saturate DRAM.
	SatGBps float64
	// Package is the physical package (die) the cluster sits on. Clusters
	// on the same package exchange cache lines over the on-die interconnect;
	// cross-package transfers pay the remote locality tier. ClusterDist
	// derives the topology distance from it.
	Package int
}

// Overheads are the runtime-system cost constants used by the simulator.
// They model libgomp's costs on each platform: the price of one atomic
// iteration-pool access (a fetch-and-add plus the surrounding call), the
// additional cost when several threads contend on the same cache line, the
// data-locality penalty paid at every chunk boundary under dynamic
// scheduling (§2: "the non-predictive behavior of this approach tends to
// degrade data locality"), the fork/join cost per parallel loop, and the
// cost of reading a timestamp (cheap on Linux thanks to the vsyscall, §4.2).
// The locality penalty is tiered by chunk provenance: a cold chunk claimed
// from the thread's own (home) shard pays LocalityPenaltyNs, one handed off
// from a foreign shard whose owner cluster shares the package pays
// LocalityForeignNs, and one pulled across packages pays LocalityRemoteNs.
// Zero tier values are filled by New from LocalityPenaltyNs (1.5x / 2.5x),
// so platform descriptions that predate the tiers stay valid.
type Overheads struct {
	PoolAccessNs      float64 // one GOMP_loop_*_next style pool access
	ContentionNs      float64 // extra per concurrent accessor on the pool line
	LocalityPenaltyNs float64 // cold chunk from the home shard
	LocalityForeignNs float64 // cold chunk from a same-package foreign shard
	LocalityRemoteNs  float64 // cold chunk from a cross-package foreign shard
	ForkJoinNs        float64 // per parallel loop (fork + implicit barrier)
	TimestampNs       float64 // one clock read during sampling
}

// Platform is a complete AMP: an ordered list of clusters (big first by
// convention, matching the paper's CPU numbering where CPUs 4-7 are big)
// plus the runtime overhead constants calibrated for the machine.
type Platform struct {
	Name     string
	Clusters []Cluster
	Overhead Overheads

	cores []int   // flattened topology: each CPU's cluster index
	dist  [][]int // cluster-to-cluster distances, built once by New
}

// Binding is the thread-to-core mapping convention of §5: under SB, cores
// are populated in ascending order by thread ID (threads 0..3 land on small
// cores); under BS, in descending order (big cores are reserved for threads
// 0..3). All AID variants assume BS (§4.3).
type Binding int

const (
	// BindBS assigns thread 0 to the highest-numbered CPU (a big core). It
	// is the zero value because every AID variant assumes it (§4.3).
	BindBS Binding = iota
	// BindSB assigns thread 0 to CPU 0 (a small core).
	BindSB
)

// String implements fmt.Stringer.
func (b Binding) String() string {
	if b == BindBS {
		return "BS"
	}
	return "SB"
}

// ParseBinding reads a binding as String writes it, "BS" or "SB"; letter case
// and surrounding space do not matter (it is also the value grammar of the
// -binding flags).
func ParseBinding(text string) (Binding, error) {
	switch strings.ToUpper(strings.TrimSpace(text)) {
	case "BS":
		return BindBS, nil
	case "SB":
		return BindSB, nil
	}
	return 0, fmt.Errorf("amp: binding %q is neither BS nor SB", text)
}

// maxCores bounds a platform's core count. A description can come from a
// platform file or a run record, and New allocates per core and per pair of
// clusters, so the count in a file must not decide how much.
const maxCores = 4096

// New assembles a platform from clusters and overheads. Clusters must be
// ordered big-to-small (cluster 0 = big), mirroring the paper's convention
// that CPUs with higher numbers are big cores: the flattened CPU numbering
// puts small-cluster cores first, so CPU IDs 0..NS-1 are small and
// NS..NS+NB-1 are big, as on the Odroid.
func New(name string, clusters []Cluster, ov Overheads) (*Platform, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("amp: platform %q has no clusters", name)
	}
	p := &Platform{Name: name, Clusters: append([]Cluster(nil), clusters...), Overhead: ov}
	// Flatten: small clusters occupy low CPU numbers. We treat cluster 0 as
	// the big cluster and later clusters as progressively smaller, so we
	// emit cores in reverse cluster order.
	for ci := len(clusters) - 1; ci >= 0; ci-- {
		c := clusters[ci]
		if c.NumCores <= 0 {
			return nil, fmt.Errorf("amp: cluster %d of %q has %d cores", ci, name, c.NumCores)
		}
		if c.NumCores > maxCores-len(p.cores) {
			return nil, fmt.Errorf("amp: platform %q has more than %d cores", name, maxCores)
		}
		for i := 0; i < c.NumCores; i++ {
			p.cores = append(p.cores, ci)
		}
	}
	// Fill defaulted energy and locality-tier fields so descriptions that
	// predate them (old platform files, trace records) keep working. The
	// defaults are deterministic functions of the populated fields, which
	// keeps New idempotent: re-encoding a normalized platform and decoding
	// it yields the same platform.
	for ci := range p.Clusters {
		ct := &p.Clusters[ci].Type
		if ct.ActiveW == 0 {
			ipc := ct.IPCScalar
			if ct.IPCMax > ipc {
				ipc = ct.IPCMax
			}
			ct.ActiveW = 0.5 * ct.FreqGHz * ct.DutyCycle * ipc
		}
		if ct.IdleW == 0 {
			ct.IdleW = 0.08 * ct.ActiveW
		}
	}
	if p.Overhead.LocalityForeignNs == 0 {
		p.Overhead.LocalityForeignNs = 1.5 * p.Overhead.LocalityPenaltyNs
	}
	if p.Overhead.LocalityRemoteNs == 0 {
		p.Overhead.LocalityRemoteNs = 2.5 * p.Overhead.LocalityPenaltyNs
	}
	p.dist = make([][]int, len(p.Clusters))
	for i := range p.dist {
		p.dist[i] = make([]int, len(p.Clusters))
		for j := range p.dist[i] {
			p.dist[i][j] = p.ClusterDist(i, j)
		}
	}
	return p, nil
}

// ClusterDist returns the topology distance between two clusters: 0 for the
// same cluster, 1 for distinct clusters on the same package, 2 across
// packages. It is the metric behind the tiered locality penalty and the
// nearest-victim steal order.
func (p *Platform) ClusterDist(a, b int) int {
	if a == b {
		return 0
	}
	if p.Clusters[a].Package == p.Clusters[b].Package {
		return 1
	}
	return 2
}

// TypeDist returns the full cluster-to-cluster distance matrix (see
// ClusterDist), in the shape pool.SetTopology and core.LoopInfo consume. The
// matrix is built once, by New, from the clusters' packages as they were
// then, and every call returns that same matrix: it is shared by every pool,
// scheduler and engine of the platform and must be treated as read-only.
func (p *Platform) TypeDist() [][]int { return p.dist }

// Validate checks the platform description for the malformations a hand-
// written or corrupted platform file can carry: zero-core clusters,
// non-finite or non-positive rates, duty cycles outside (0,1], negative
// overheads, and clusters not ordered big-first (New's flattening convention
// requires cluster 0 to be the fastest). New performs only the structural
// checks; LoadFile and the registry run Validate on top.
func (p *Platform) Validate() error {
	if len(p.Clusters) == 0 {
		return fmt.Errorf("amp: platform %q has no clusters", p.Name)
	}
	bad := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
	prev := math.Inf(1)
	for ci, c := range p.Clusters {
		if c.NumCores <= 0 {
			return fmt.Errorf("amp: cluster %d of %q has %d cores", ci, p.Name, c.NumCores)
		}
		ct := c.Type
		if !(ct.FreqGHz > 0) || bad(ct.FreqGHz) {
			return fmt.Errorf("amp: cluster %d of %q: frequency %v GHz not positive and finite", ci, p.Name, ct.FreqGHz)
		}
		if !(ct.DutyCycle > 0) || ct.DutyCycle > 1 {
			return fmt.Errorf("amp: cluster %d of %q: duty cycle %v outside (0,1]", ci, p.Name, ct.DutyCycle)
		}
		if !(ct.IPCScalar > 0) || bad(ct.IPCScalar) || !(ct.IPCMax > 0) || bad(ct.IPCMax) {
			return fmt.Errorf("amp: cluster %d of %q: IPC %v/%v not positive and finite", ci, p.Name, ct.IPCScalar, ct.IPCMax)
		}
		if !(ct.MemGBps > 0) || bad(ct.MemGBps) {
			return fmt.Errorf("amp: cluster %d of %q: memory throughput %v not positive and finite", ci, p.Name, ct.MemGBps)
		}
		if ct.ActiveW < 0 || bad(ct.ActiveW) || ct.IdleW < 0 || bad(ct.IdleW) {
			return fmt.Errorf("amp: cluster %d of %q: power draw %v/%v W negative or not finite", ci, p.Name, ct.ActiveW, ct.IdleW)
		}
		if c.LLCMB < 0 || bad(c.LLCMB) || c.MissSlope < 0 || bad(c.MissSlope) || c.SatGBps < 0 || bad(c.SatGBps) {
			return fmt.Errorf("amp: cluster %d of %q: negative or non-finite cache/saturation parameters", ci, p.Name)
		}
		if c.Package < 0 {
			return fmt.Errorf("amp: cluster %d of %q: negative package %d", ci, p.Name, c.Package)
		}
		// Big-first ordering: single-thread compute speed at a moderate mix
		// must not increase along the cluster list (ties allowed — twin
		// clusters on different packages are legitimately equal).
		ref := ct.ComputeSpeed(0.5)
		if ref > prev*(1+1e-9) {
			return fmt.Errorf("amp: clusters of %q not ordered big-first: cluster %d (speed %.3f) is faster than its predecessor (%.3f)",
				p.Name, ci, ref, prev)
		}
		prev = ref
	}
	ov := p.Overhead
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PoolAccessNs", ov.PoolAccessNs}, {"ContentionNs", ov.ContentionNs},
		{"LocalityPenaltyNs", ov.LocalityPenaltyNs}, {"LocalityForeignNs", ov.LocalityForeignNs},
		{"LocalityRemoteNs", ov.LocalityRemoteNs}, {"ForkJoinNs", ov.ForkJoinNs},
		{"TimestampNs", ov.TimestampNs},
	} {
		if f.v < 0 || bad(f.v) {
			return fmt.Errorf("amp: platform %q: overhead %s = %v negative or not finite", p.Name, f.name, f.v)
		}
	}
	return nil
}

// NumCores returns the total core count.
func (p *Platform) NumCores() int { return len(p.cores) }

// ClusterOf returns the cluster index of CPU id.
func (p *Platform) ClusterOf(cpu int) int { return p.cores[cpu] }

// CoreOf maps a thread ID to a CPU under the given binding convention with
// nthreads total threads. It panics if tid or nthreads is out of range,
// since a bad mapping is a programming error in the runtime.
func (p *Platform) CoreOf(tid, nthreads int, b Binding) int {
	if nthreads <= 0 || nthreads > p.NumCores() {
		panic(fmt.Sprintf("amp: nthreads %d out of range (platform has %d cores)", nthreads, p.NumCores()))
	}
	if tid < 0 || tid >= nthreads {
		panic(fmt.Sprintf("amp: tid %d out of range [0,%d)", tid, nthreads))
	}
	if b == BindSB {
		return tid // ascending: thread 0 -> CPU 0 (small)
	}
	return p.NumCores() - 1 - tid // descending: thread 0 -> highest CPU (big)
}

// effectiveMem returns the profile's memory intensity after accounting for
// LLC over-subscription in the cluster: activeInCluster threads each with
// p.FootprintMB of working set compete for the cluster's LLC; occupancy
// beyond 1.0 converts part of the remaining compute time into memory time.
func (p *Platform) effectiveMem(prof Profile, cluster, activeInCluster int) float64 {
	c := p.Clusters[cluster]
	m := prof.MemIntensity
	if prof.FootprintMB <= 0 || c.LLCMB <= 0 || activeInCluster <= 0 {
		return m
	}
	occ := float64(activeInCluster) * prof.FootprintMB / c.LLCMB
	if occ <= 1 {
		return m
	}
	extra := c.MissSlope * (occ - 1)
	if extra > 0.9 {
		extra = 0.9
	}
	return m + (1-m)*extra
}

// Speed returns execution speed in work units per nanosecond for CPU `cpu`
// running code with profile prof while activeInCluster threads (including
// this one) are running in the same cluster. The model composes a compute
// term and a memory term in series:
//
//	t(unit) = (1-m)/computeSpeed + m/memSpeed
//
// where m is the LLC-contention-adjusted memory intensity.
func (p *Platform) Speed(cpu int, prof Profile, activeInCluster int) float64 {
	ci := p.cores[cpu]
	c := p.Clusters[ci]
	m := p.effectiveMem(prof, ci, activeInCluster)
	cs := c.Type.ComputeSpeed(prof.ILP)
	ms := c.Type.MemGBps
	if c.SatGBps > 0 && activeInCluster > 0 {
		if cap := c.SatGBps / float64(activeInCluster); cap < ms {
			ms = cap
		}
	}
	t := (1-m)/cs + m/ms
	return 1 / t
}

// SF returns the emergent big-to-small speedup factor for code with profile
// prof when activeBig and activeSmall threads run on each cluster. This is
// the quantity Fig. 2 measures offline; the runtime estimates it online.
// For platforms with more than two clusters, the ratio is taken between
// cluster 0 and the last cluster.
func (p *Platform) SF(prof Profile, activeBig, activeSmall int) float64 {
	bigCPU := p.NumCores() - 1 // highest CPU is big
	smallCPU := 0              // lowest CPU is in the smallest cluster
	return p.Speed(bigCPU, prof, activeBig) / p.Speed(smallCPU, prof, activeSmall)
}

// OfflineSF reproduces the paper's offline SF measurement method (§2): run
// the code with a single thread on a big core, then on a small core, and
// take the completion-time ratio. Single-threaded runs see no LLC
// contention, which is precisely why offline SF misleads for
// cache-contended programs (§5C, Fig. 9c).
func (p *Platform) OfflineSF(prof Profile) float64 {
	return p.SF(prof, 1, 1)
}

// PlatformA returns the Odroid-XU4 model (Table 1). Calibration targets the
// published behaviour rather than microarchitectural truth: big-to-small SF
// ranges from ~1.2 for fully memory-bound loops to ~8.9 for high-ILP compute
// loops, matching the ranges reported in §2 and §5 (up to 7.7 in Fig. 2,
// 8.9 max across all loops).
func PlatformA() *Platform {
	big := Cluster{
		Type: CoreType{
			Name:      "Cortex-A15",
			FreqGHz:   2.0,
			DutyCycle: 1.0,
			IPCScalar: 1.0,
			IPCMax:    3.3, // wide OoO: high ILP pays off
			MemGBps:   1.6,
			ActiveW:   1.8, // the A15 cluster dominates the XU4's power budget
			IdleW:     0.15,
		},
		NumCores: 4,
		LLCMB:    2.0,
		// The out-of-order core is hit harder by LLC overflow: its wide
		// window stalls on misses it cannot hide. Only per-thread working
		// sets above ~0.5 MB overflow this 2 MB cluster LLC at 4 threads
		// (blackscholes, streamcluster).
		MissSlope: 0.75,
		SatGBps:   1.7,
	}
	small := Cluster{
		Type: CoreType{
			Name:      "Cortex-A7",
			FreqGHz:   1.5,
			DutyCycle: 1.0,
			IPCScalar: 0.70, // in-order cores keep up on serial-dependent code
			IPCMax:    0.52, // ...but gain nothing from exploitable ILP
			MemGBps:   1.45,
			ActiveW:   0.33,
			IdleW:     0.03,
		},
		NumCores:  4,
		LLCMB:     0.5,
		MissSlope: 0.45,
		SatGBps:   1.7,
	}
	ov := Overheads{
		// ARM atomics and the shared pool line are comparatively expensive;
		// these values make dynamic(1) overhead visible for short loops
		// (IS slows down ~1.9x, §5A) while staying negligible for long ones.
		// ContentionNs is calibrated for per-shard occupancy accounting: a
		// home claim with the full cluster active pays 3x105 ns, matching
		// the 7x45 ns the old all-active-threads model charged.
		PoolAccessNs:      120,
		ContentionNs:      105,
		LocalityPenaltyNs: 160,
		LocalityForeignNs: 240,
		LocalityRemoteNs:  400,
		ForkJoinNs:        9000,
		TimestampNs:       30,
	}
	p, err := New("A (Odroid-XU4 big.LITTLE)", []Cluster{big, small}, ov)
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return p
}

// PlatformB returns the emulated x86 AMP model (§5): four fast cores at
// 2.1 GHz and four slow ones at 1.2 GHz x 87.5% duty cycle, sharing one
// 20 MB LLC. Both core types have the same microarchitecture, so the SF
// range is narrow: ~1.7 (memory-bound; DRAM and LLC are shared and the duty
// mechanism still gates the load/store units) to ~2.3 (compute-bound),
// matching Fig. 2b/2d.
func PlatformB() *Platform {
	fast := Cluster{
		Type: CoreType{
			Name:      "Xeon-fast",
			FreqGHz:   2.1,
			DutyCycle: 1.0,
			IPCScalar: 1.3,
			IPCMax:    3.8,
			MemGBps:   4.6,
			ActiveW:   8.5,
			IdleW:     1.1,
		},
		NumCores:  4,
		LLCMB:     10.0, // half of the shared 20MB LLC attributed per group
		MissSlope: 0.18,
		SatGBps:   8.0,
	}
	slow := Cluster{
		Type: CoreType{
			Name:      "Xeon-slow",
			FreqGHz:   1.2,
			DutyCycle: 0.875,
			IPCScalar: 1.25,
			IPCMax:    3.35,
			MemGBps:   2.7,
			ActiveW:   4.2, // same microarchitecture, lower frequency and duty
			IdleW:     1.0,
		},
		NumCores:  4,
		LLCMB:     10.0,
		MissSlope: 0.18,
		SatGBps:   8.0,
	}
	ov := Overheads{
		// x86 atomics are cheaper in absolute terms, but the relative
		// benefit of big cores is small (SF <= 2.3), so overhead more
		// easily negates dynamic's benefit (§5A: CG slows down by up to
		// 2.86x under dynamic on this platform).
		PoolAccessNs:      90,
		ContentionNs:      95, // per-shard occupancy: 3x95 ~= the old 7x40
		LocalityPenaltyNs: 140,
		LocalityForeignNs: 210,
		LocalityRemoteNs:  350,
		ForkJoinNs:        5200,
		TimestampNs:       20,
	}
	p, err := New("B (Xeon E5-2620 v4 emulated AMP)", []Cluster{fast, slow}, ov)
	if err != nil {
		panic(err)
	}
	return p
}

// PlatformTri returns a three-core-type platform in the style of an ARM
// DynamIQ design (2 prime + 3 middle + 3 little cores). The paper
// generalizes AID-static to NC core types in §4.2 — "for each core type j,
// SF_j must be measured ... each thread in core type j would receive SF_j·k
// iterations, where k = NI / Σ_t N_t·SF_t" — and this platform exercises
// that path (no two-type shortcut survives contact with it).
func PlatformTri() *Platform {
	prime := Cluster{
		Type: CoreType{
			Name:      "prime",
			FreqGHz:   2.8,
			DutyCycle: 1.0,
			IPCScalar: 1.15,
			IPCMax:    3.6,
			MemGBps:   2.2,
		},
		NumCores:  2,
		LLCMB:     2.0,
		MissSlope: 0.6,
		SatGBps:   2.4,
	}
	mid := Cluster{
		Type: CoreType{
			Name:      "middle",
			FreqGHz:   2.2,
			DutyCycle: 1.0,
			IPCScalar: 0.95,
			IPCMax:    2.2,
			MemGBps:   1.8,
		},
		NumCores:  3,
		LLCMB:     1.0,
		MissSlope: 0.5,
		SatGBps:   2.2,
	}
	little := Cluster{
		Type: CoreType{
			Name:      "little",
			FreqGHz:   1.6,
			DutyCycle: 1.0,
			IPCScalar: 0.72,
			IPCMax:    0.6,
			MemGBps:   1.5,
		},
		NumCores:  3,
		LLCMB:     0.5,
		MissSlope: 0.45,
		SatGBps:   2.0,
	}
	ov := Overheads{
		PoolAccessNs:      110,
		ContentionNs:      95,
		LocalityPenaltyNs: 150,
		LocalityForeignNs: 225,
		LocalityRemoteNs:  375,
		ForkJoinNs:        8000,
		TimestampNs:       25,
	}
	p, err := New("Tri (2 prime + 3 middle + 3 little)", []Cluster{prime, mid, little}, ov)
	if err != nil {
		panic(err)
	}
	return p
}
