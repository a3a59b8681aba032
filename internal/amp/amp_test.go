package amp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		ok   bool
	}{
		{"zero", Profile{}, true},
		{"typical", Profile{ILP: 0.7, MemIntensity: 0.2, FootprintMB: 1}, true},
		{"bounds", Profile{ILP: 1, MemIntensity: 1}, true},
		{"ilp-low", Profile{ILP: -0.1}, false},
		{"ilp-high", Profile{ILP: 1.1}, false},
		{"mem-low", Profile{MemIntensity: -0.1}, false},
		{"mem-high", Profile{MemIntensity: 1.5}, false},
		{"neg-footprint", Profile{FootprintMB: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate(%+v) err=%v, ok=%v", c.p, err, c.ok)
			}
		})
	}
}

func TestCoreTypeIPCInterpolates(t *testing.T) {
	ct := CoreType{IPCScalar: 1, IPCMax: 3}
	if got := ct.IPC(0); got != 1 {
		t.Errorf("IPC(0) = %v, want 1", got)
	}
	if got := ct.IPC(1); got != 3 {
		t.Errorf("IPC(1) = %v, want 3", got)
	}
	// Cubic response: IPC(0.5) = scalar + (max-scalar)*0.125.
	if got := ct.IPC(0.5); got != 1.25 {
		t.Errorf("IPC(0.5) = %v, want 1.25", got)
	}
	// Monotone non-decreasing when IPCMax >= IPCScalar.
	prev := 0.0
	for ilp := 0.0; ilp <= 1.0; ilp += 0.05 {
		if got := ct.IPC(ilp); got < prev {
			t.Errorf("IPC not monotone at ilp=%v: %v < %v", ilp, got, prev)
		} else {
			prev = got
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("empty", nil, Overheads{}); err == nil {
		t.Error("New with no clusters should fail")
	}
	bad := []Cluster{{Type: CoreType{}, NumCores: 0}}
	if _, err := New("zero-cores", bad, Overheads{}); err == nil {
		t.Error("New with zero-core cluster should fail")
	}
	// A core count is outside input (platform files, run records): New must
	// refuse it before allocating a table of that size.
	huge := []Cluster{{NumCores: maxCores}, {NumCores: 1}}
	if _, err := New("huge", huge, Overheads{}); err == nil {
		t.Errorf("New with %d cores should fail", maxCores+1)
	}
	if _, err := New("huge", []Cluster{{NumCores: 1 << 62}, {NumCores: 1 << 62}}, Overheads{}); err == nil {
		t.Error("New with 2^63 cores should fail")
	}
	// New validates, so the largest platform's cores need a real type.
	large := []Cluster{{Type: PlatformA().Clusters[0].Type, NumCores: maxCores}}
	if p, err := New("large", large, Overheads{}); err != nil || p.NumCores() != maxCores {
		t.Errorf("New with %d cores: %v", maxCores, err)
	}
}

func TestPlatformTopologyA(t *testing.T) {
	p := PlatformA()
	if p.NumCores() != 8 || p.Clusters[0].NumCores != 4 {
		t.Fatalf("Platform A topology: cores=%d big=%d", p.NumCores(), p.Clusters[0].NumCores)
	}
	// Paper convention: CPUs 0-3 are small, CPUs 4-7 are big.
	for cpu := 0; cpu < 4; cpu++ {
		if p.ClusterOf(cpu) == 0 {
			t.Errorf("CPU %d should be small", cpu)
		}
	}
	for cpu := 4; cpu < 8; cpu++ {
		if p.ClusterOf(cpu) != 0 {
			t.Errorf("CPU %d should be big", cpu)
		}
	}
}

func TestBindings(t *testing.T) {
	p := PlatformA()
	// SB: ascending by thread ID -> thread 0 on CPU 0 (small).
	if cpu := p.CoreOf(0, 8, BindSB); cpu != 0 || p.ClusterOf(cpu) == 0 {
		t.Errorf("SB thread 0 -> CPU %d (big=%v), want CPU 0 small", cpu, p.ClusterOf(cpu) == 0)
	}
	// BS: descending -> thread 0 on CPU 7 (big).
	if cpu := p.CoreOf(0, 8, BindBS); cpu != 7 || p.ClusterOf(cpu) != 0 {
		t.Errorf("BS thread 0 -> CPU %d (big=%v), want CPU 7 big", cpu, p.ClusterOf(cpu) == 0)
	}
	// Under BS, threads 0..NB-1 are on big cores (AID's assumption, §4.3).
	for tid := 0; tid < 4; tid++ {
		if p.ClusterOf(p.CoreOf(tid, 8, BindBS)) != 0 {
			t.Errorf("BS thread %d not on big core", tid)
		}
	}
	for tid := 4; tid < 8; tid++ {
		if p.ClusterOf(p.CoreOf(tid, 8, BindBS)) == 0 {
			t.Errorf("BS thread %d not on small core", tid)
		}
	}
	// 4-thread runs: BS gives all-big, SB gives all-small.
	for tid := 0; tid < 4; tid++ {
		if p.ClusterOf(p.CoreOf(tid, 4, BindBS)) != 0 || p.ClusterOf(p.CoreOf(tid, 4, BindSB)) == 0 {
			t.Errorf("4 threads: thread %d is not on a big core under BS and a small one under SB", tid)
		}
	}
}

func TestCoreOfPanics(t *testing.T) {
	p := PlatformA()
	for _, c := range []struct {
		name          string
		tid, nthreads int
	}{
		{"tid-negative", -1, 8},
		{"tid-too-big", 8, 8},
		{"nthreads-zero", 0, 0},
		{"nthreads-over", 0, 9},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("CoreOf(%d,%d) did not panic", c.tid, c.nthreads)
				}
			}()
			p.CoreOf(c.tid, c.nthreads, BindBS)
		})
	}
}

func TestSFRangePlatformA(t *testing.T) {
	p := PlatformA()
	// High-ILP compute-bound code: SF should be large (paper: up to ~8.9).
	hi := p.OfflineSF(Profile{ILP: 1, MemIntensity: 0})
	if hi < 6.5 || hi > 9.5 {
		t.Errorf("Platform A compute SF = %v, want within [6.5, 9.5]", hi)
	}
	// Memory-bound code: SF should be modest (~1.2-1.5).
	lo := p.OfflineSF(Profile{ILP: 0, MemIntensity: 1})
	if lo < 1.0 || lo > 1.6 {
		t.Errorf("Platform A memory SF = %v, want within [1.0, 1.6]", lo)
	}
	if hi <= lo {
		t.Errorf("compute SF %v should exceed memory SF %v", hi, lo)
	}
}

func TestSFRangePlatformB(t *testing.T) {
	p := PlatformB()
	// Paper: SF on Platform B spans roughly 1.7-2.3 (Fig 2b/2d).
	hi := p.OfflineSF(Profile{ILP: 1, MemIntensity: 0})
	if hi < 2.0 || hi > 2.45 {
		t.Errorf("Platform B compute SF = %v, want within [2.0, 2.45]", hi)
	}
	lo := p.OfflineSF(Profile{ILP: 0, MemIntensity: 1})
	if lo < 1.55 || lo > 1.9 {
		t.Errorf("Platform B memory SF = %v, want within [1.55, 1.9]", lo)
	}
	// The max big-to-small speedup is substantially smaller on B than A (§5A).
	if amax := PlatformA().OfflineSF(Profile{ILP: 1}); amax <= hi {
		t.Errorf("Platform A max SF (%v) should exceed Platform B max SF (%v)", amax, hi)
	}
}

func TestSFMonotonicInILP(t *testing.T) {
	// On Platform A, more ILP means bigger big-core advantage.
	p := PlatformA()
	f := func(rawA, rawB uint8) bool {
		a := float64(rawA) / 255
		b := float64(rawB) / 255
		if a > b {
			a, b = b, a
		}
		sfA := p.OfflineSF(Profile{ILP: a})
		sfB := p.OfflineSF(Profile{ILP: b})
		return sfB >= sfA-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSFDecreasesWithMemIntensity(t *testing.T) {
	p := PlatformA()
	prev := math.Inf(1)
	for m := 0.0; m <= 1.0; m += 0.1 {
		sf := p.OfflineSF(Profile{ILP: 0.8, MemIntensity: m})
		if sf > prev+1e-9 {
			t.Errorf("SF increased with MemIntensity at m=%v: %v > %v", m, sf, prev)
		}
		prev = sf
	}
}

func TestLLCContentionReducesSF(t *testing.T) {
	// The blackscholes effect (§5C, Fig 9c): a cache-hungry profile shows a
	// high SF in single-threaded (offline) measurement but a much lower SF
	// when all 8 threads contend for the LLCs.
	p := PlatformA()
	prof := Profile{ILP: 0.9, MemIntensity: 0.1, FootprintMB: 0.9}
	offline := p.OfflineSF(prof)
	online := p.SF(prof, 4, 4)
	if online >= offline {
		t.Errorf("contended SF (%v) should be below offline SF (%v)", online, offline)
	}
	if offline/online < 1.5 {
		t.Errorf("contention effect too weak: offline=%v online=%v", offline, online)
	}
}

func TestNoContentionForPureComputeCode(t *testing.T) {
	// Pure compute code (no memory component, no footprint) sees neither
	// LLC contention nor DRAM saturation: SF is thread-count independent.
	p := PlatformA()
	prof := Profile{ILP: 0.5} // MemIntensity = 0, FootprintMB = 0
	if got, want := p.SF(prof, 4, 4), p.OfflineSF(prof); math.Abs(got-want) > 1e-12 {
		t.Errorf("pure-compute SF changed under contention: %v vs %v", got, want)
	}
}

func TestDRAMSaturationCompressesMemoryBoundSF(t *testing.T) {
	// Memory-bound code saturates the shared DRAM at 4 threads per cluster;
	// the cap is core-type independent, so the 8-thread SF drops below the
	// offline SF (the §5C effect, generalized).
	p := PlatformA()
	prof := Profile{ILP: 0.5, MemIntensity: 0.5}
	offline := p.OfflineSF(prof)
	online := p.SF(prof, 4, 4)
	if online >= offline {
		t.Errorf("saturated SF (%v) should be below offline SF (%v)", online, offline)
	}
}

func TestSpeedPositive(t *testing.T) {
	for _, p := range []*Platform{PlatformA(), PlatformB()} {
		f := func(ilpRaw, memRaw, fpRaw uint8, cpuRaw uint8, nActRaw uint8) bool {
			prof := Profile{
				ILP:          float64(ilpRaw) / 255,
				MemIntensity: float64(memRaw) / 255,
				FootprintMB:  float64(fpRaw) / 64,
			}
			cpu := int(cpuRaw) % p.NumCores()
			nAct := 1 + int(nActRaw)%4
			s := p.Speed(cpu, prof, nAct)
			return s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("platform %s: %v", p.Name, err)
		}
	}
}

func TestBigAlwaysAtLeastAsFast(t *testing.T) {
	// For any profile without contention asymmetry, a big core is at least
	// as fast as a small one on the same platform.
	for _, p := range []*Platform{PlatformA(), PlatformB()} {
		f := func(ilpRaw, memRaw uint8) bool {
			prof := Profile{
				ILP:          float64(ilpRaw) / 255,
				MemIntensity: float64(memRaw) / 255,
			}
			return p.SF(prof, 1, 1) >= 1.0-1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("platform %s: %v", p.Name, err)
		}
	}
}

func TestBindingString(t *testing.T) {
	if BindSB.String() != "SB" || BindBS.String() != "BS" {
		t.Errorf("Binding.String: got %q, %q", BindSB, BindBS)
	}
}

func TestOverheadsPopulated(t *testing.T) {
	for _, p := range []*Platform{PlatformA(), PlatformB()} {
		ov := p.Overhead
		if ov.PoolAccessNs <= 0 || ov.ContentionNs <= 0 || ov.LocalityPenaltyNs <= 0 ||
			ov.ForkJoinNs <= 0 || ov.TimestampNs <= 0 {
			t.Errorf("platform %s has unpopulated overheads: %+v", p.Name, ov)
		}
	}
	// ARM atomics are modeled as more expensive than x86 ones.
	if PlatformA().Overhead.PoolAccessNs <= PlatformB().Overhead.PoolAccessNs {
		t.Error("expected Platform A pool access to cost more than Platform B")
	}
}

func TestPlatformTriTopology(t *testing.T) {
	p := PlatformTri()
	if p.NumCores() != 8 {
		t.Fatalf("Tri has %d cores, want 8", p.NumCores())
	}
	if len(p.Clusters) != 3 {
		t.Fatalf("Tri has %d clusters, want 3", len(p.Clusters))
	}
	// Flattening puts the smallest cluster at the lowest CPU numbers:
	// CPUs 0-2 little (cluster 2), 3-5 middle (cluster 1), 6-7 prime (0).
	wantCluster := []int{2, 2, 2, 1, 1, 1, 0, 0}
	for cpu, want := range wantCluster {
		if got := p.ClusterOf(cpu); got != want {
			t.Errorf("CPU %d in cluster %d, want %d", cpu, got, want)
		}
	}
	// Only cluster 0 counts as "big".
	if p.Clusters[0].NumCores != 2 || p.NumCores() != 8 {
		t.Errorf("big/all counts: %d/%d, want 2/8", p.Clusters[0].NumCores, p.NumCores())
	}
}

func TestPlatformTriSpeedOrdering(t *testing.T) {
	p := PlatformTri()
	// For any profile, prime >= middle >= little (single thread active).
	f := func(ilpRaw, memRaw uint8) bool {
		prof := Profile{ILP: float64(ilpRaw) / 255, MemIntensity: float64(memRaw) / 255}
		prime := p.Speed(7, prof, 1)
		middle := p.Speed(4, prof, 1)
		little := p.Speed(0, prof, 1)
		return prime >= middle-1e-12 && middle >= little-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlatformTriBSBinding(t *testing.T) {
	p := PlatformTri()
	// Under BS with 8 threads: threads 0-1 on prime, 2-4 middle, 5-7 little.
	wantCluster := []int{0, 0, 1, 1, 1, 2, 2, 2}
	for tid, want := range wantCluster {
		cpu := p.CoreOf(tid, 8, BindBS)
		if got := p.ClusterOf(cpu); got != want {
			t.Errorf("BS thread %d on cluster %d, want %d", tid, got, want)
		}
	}
}
