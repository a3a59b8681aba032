package core

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// twoTypeInfo builds a LoopInfo with nBig big threads (type 0) followed by
// nSmall small threads (type 1), matching the BS mapping convention.
func twoTypeInfo(ni int64, nBig, nSmall int) LoopInfo {
	return LoopInfo{
		NI:       ni,
		NThreads: nBig + nSmall,
		NumTypes: 2,
		TypeOf: func(tid int) int {
			if tid < nBig {
				return 0
			}
			return 1
		},
	}
}

// virtualExec drives a scheduler with a deterministic virtual-time executor:
// each thread has a clock; iterations cost perIterNs[coreType] each; the
// thread with the earliest clock acts next. It returns the per-thread
// iteration counts, a coverage bitmap, and the per-thread finish times.
func virtualExec(t *testing.T, s Scheduler, info LoopInfo, perIterNs []int64) (counts []int64, finish []int64) {
	t.Helper()
	return virtualExecCost(t, s, info, func(ct int, _ int64) int64 { return perIterNs[ct] })
}

// virtualExecCost is virtualExec with iteration i costing iterNs(coreType, i).
func virtualExecCost(t *testing.T, s Scheduler, info LoopInfo, iterNs func(ct int, i int64) int64) (counts []int64, finish []int64) {
	t.Helper()
	counts = make([]int64, info.NThreads)
	finish = make([]int64, info.NThreads)
	clock := make([]int64, info.NThreads)
	active := make([]bool, info.NThreads)
	for i := range active {
		active[i] = true
	}
	covered := make([]int32, info.NI)
	for {
		// Pick the active thread with the smallest clock (ties: lowest tid).
		tid := -1
		for i := 0; i < info.NThreads; i++ {
			if active[i] && (tid == -1 || clock[i] < clock[tid]) {
				tid = i
			}
		}
		if tid == -1 {
			break
		}
		asg, ok := s.Next(tid, clock[tid])
		if !ok {
			active[tid] = false
			finish[tid] = clock[tid]
			continue
		}
		if asg.Lo < 0 || asg.Hi > info.NI || asg.Lo >= asg.Hi {
			t.Fatalf("scheduler %s returned bad range [%d,%d)", s.Name(), asg.Lo, asg.Hi)
		}
		ct := info.TypeOf(tid)
		for i := asg.Lo; i < asg.Hi; i++ {
			covered[i]++
			clock[tid] += iterNs(ct, i)
		}
		counts[tid] += asg.N()
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("scheduler %s: iteration %d covered %d times", s.Name(), i, c)
		}
	}
	return counts, finish
}

func TestLoopInfoValidate(t *testing.T) {
	good := twoTypeInfo(100, 2, 2)
	if err := good.Validate(); err != nil {
		t.Errorf("valid info rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*LoopInfo)
	}{
		{"negative-ni", func(li *LoopInfo) { li.NI = -1 }},
		{"zero-threads", func(li *LoopInfo) { li.NThreads = 0 }},
		{"zero-types", func(li *LoopInfo) { li.NumTypes = 0 }},
		{"types-past-int32", func(li *LoopInfo) { li.NumTypes = math.MaxInt32; li.NumTypes++ }}, // Assign.Origin is an int32
		{"nil-typeof", func(li *LoopInfo) { li.TypeOf = nil }},
		{"bad-type", func(li *LoopInfo) { li.TypeOf = func(int) int { return 7 } }},
		{"short-topology", func(li *LoopInfo) { li.TypeDist = [][]int{{0, 1}} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			li := twoTypeInfo(100, 2, 2)
			c.mut(&li)
			if err := li.Validate(); err == nil {
				t.Error("invalid info accepted")
			}
		})
	}
}

// TestRaggedTopologyRefused: a topology matrix with a row shorter than the
// core-type count is refused when the scheduler is built. Were it accepted,
// thread 0 would index past its row on its first foreign steal, once its
// home shard drained.
func TestRaggedTopologyRefused(t *testing.T) {
	info := LoopInfo{NI: 100, NThreads: 2, NumTypes: 2, TypeOf: func(tid int) int { return tid },
		TypeDist: [][]int{{0}, {1, 0}}}
	d, err := NewDynamic(info, 1)
	if err == nil {
		for ok := true; ok; _, ok = d.Next(0, 0) {
		}
		t.Fatal("NewDynamic accepted a ragged topology matrix")
	}
	if want := "row 0 covers 1 types"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
}

func TestStaticRanges(t *testing.T) {
	// libgomp distribution: NI=10, N=4 -> 3,3,2,2 contiguous.
	info := twoTypeInfo(10, 2, 2)
	s, err := NewStatic(info)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for tid, w := range want {
		lo, hi := s.Range(tid)
		if lo != w[0] || hi != w[1] {
			t.Errorf("Range(%d) = [%d,%d), want [%d,%d)", tid, lo, hi, w[0], w[1])
		}
	}
}

func TestStaticCoverageAndSingleCall(t *testing.T) {
	info := twoTypeInfo(1000, 2, 2)
	s, _ := NewStatic(info)
	counts, _ := virtualExec(t, s, info, []int64{100, 300})
	for tid, c := range counts {
		if c != 250 {
			t.Errorf("static gave thread %d %d iterations, want 250", tid, c)
		}
	}
	// Second call returns false (single assignment).
	if _, ok := s.Next(0, 0); ok {
		t.Error("static handed out a second assignment")
	}
}

func TestStaticZeroPoolAccesses(t *testing.T) {
	info := twoTypeInfo(100, 2, 2)
	s, _ := NewStatic(info)
	asg, ok := s.Next(0, 0)
	if !ok || asg.PoolAccesses != 0 {
		t.Errorf("static assignment: ok=%v accesses=%d, want true/0", ok, asg.PoolAccesses)
	}
}

func TestStaticEmptyLoop(t *testing.T) {
	info := twoTypeInfo(0, 2, 2)
	s, _ := NewStatic(info)
	if _, ok := s.Next(0, 0); ok {
		t.Error("static handed out work for an empty loop")
	}
}

func TestStaticFewerIterationsThanThreads(t *testing.T) {
	info := twoTypeInfo(3, 2, 2)
	s, _ := NewStatic(info)
	counts, _ := virtualExec(t, s, info, []int64{100, 300})
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("covered %d iterations, want 3", total)
	}
}

func TestStaticChunked(t *testing.T) {
	info := twoTypeInfo(20, 2, 2)
	s, err := NewStaticChunked(info, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Thread 0 gets [0,3), [12,15); thread 1 [3,6), [15,18); etc.
	asg, ok := s.Next(0, 0)
	if !ok || asg.Lo != 0 || asg.Hi != 3 {
		t.Errorf("first block for tid 0: [%d,%d) ok=%v", asg.Lo, asg.Hi, ok)
	}
	asg, ok = s.Next(0, 0)
	if !ok || asg.Lo != 12 || asg.Hi != 15 {
		t.Errorf("second block for tid 0: [%d,%d) ok=%v", asg.Lo, asg.Hi, ok)
	}
}

func TestStaticChunkedCoverage(t *testing.T) {
	info := twoTypeInfo(103, 2, 2) // not a multiple of chunk*threads
	s, _ := NewStaticChunked(info, 4)
	virtualExec(t, s, info, []int64{100, 300})
}

func TestDynamicChunks(t *testing.T) {
	info := twoTypeInfo(10, 1, 1)
	d, err := NewDynamic(info, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Chunk() != 3 {
		t.Errorf("Chunk() = %d", d.Chunk())
	}
	asg, ok := d.Next(0, 0)
	if !ok || asg.N() != 3 || asg.PoolAccesses != 1 {
		t.Errorf("dynamic steal: %+v ok=%v", asg, ok)
	}
}

func TestDynamicBigCoresTakeMore(t *testing.T) {
	// The essential property from §3/[13]: under dynamic, threads on big
	// cores complete chunks faster and therefore steal more of the pool.
	info := twoTypeInfo(9000, 2, 2)
	d, _ := NewDynamic(info, 1)
	counts, _ := virtualExec(t, d, info, []int64{100, 300}) // SF = 3
	bigAvg := float64(counts[0]+counts[1]) / 2
	smallAvg := float64(counts[2]+counts[3]) / 2
	ratio := bigAvg / smallAvg
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("big/small steal ratio = %v, want ~3 (counts %v)", ratio, counts)
	}
}

func TestGuidedDecreasingAndCoverage(t *testing.T) {
	info := twoTypeInfo(4000, 2, 2)
	g, err := NewGuided(info, 1)
	if err != nil {
		t.Fatal(err)
	}
	virtualExec(t, g, info, []int64{100, 300})
}

func TestGuidedFirstChunkSize(t *testing.T) {
	info := twoTypeInfo(1000, 2, 2)
	g, _ := NewGuided(info, 1)
	asg, ok := g.Next(0, 0)
	if !ok || asg.N() != 250 {
		t.Errorf("first guided chunk = %d, want 250", asg.N())
	}
}

func TestConstructorValidation(t *testing.T) {
	info := twoTypeInfo(100, 2, 2)
	bad := twoTypeInfo(-1, 2, 2)
	if _, err := NewStatic(bad); err == nil {
		t.Error("NewStatic accepted bad info")
	}
	if _, err := NewStaticChunked(info, 0); err == nil {
		t.Error("NewStaticChunked accepted chunk 0")
	}
	if _, err := NewDynamic(info, 0); err == nil {
		t.Error("NewDynamic accepted chunk 0")
	}
	if _, err := NewGuided(info, -1); err == nil {
		t.Error("NewGuided accepted negative min chunk")
	}
	if _, err := NewAIDStatic(info, 0); err == nil {
		t.Error("NewAIDStatic accepted chunk 0")
	}
	if _, err := NewAIDHybrid(info, 1, 0); err == nil {
		t.Error("NewAIDHybrid accepted pct 0")
	}
	if _, err := NewAIDHybrid(info, 1, 1.5); err == nil {
		t.Error("NewAIDHybrid accepted pct > 1")
	}
	if _, err := NewAIDHybrid(info, 1, math.NaN()); err == nil {
		t.Error("NewAIDHybrid accepted pct NaN")
	}
	if _, err := NewAIDDynamic(info, 0, 5); err == nil {
		t.Error("NewAIDDynamic accepted m=0")
	}
	if _, err := NewAIDDynamic(info, 5, 1); err == nil {
		t.Error("NewAIDDynamic accepted M < m")
	}
	if _, err := NewAIDStaticOffline(info, 1, []float64{3}); err == nil {
		t.Error("NewAIDStaticOffline accepted short SF table")
	}
	if _, err := NewAIDStaticOffline(info, 1, []float64{-3, 1}); err == nil {
		t.Error("NewAIDStaticOffline accepted negative SF")
	}
	for _, sf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewAIDStaticOffline(info, 1, []float64{sf, 1}); err == nil {
			t.Errorf("NewAIDStaticOffline accepted SF %v", sf)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	info := twoTypeInfo(100, 2, 2)
	st, _ := NewStatic(info)
	sc, _ := NewStaticChunked(info, 2)
	dy, _ := NewDynamic(info, 1)
	gu, _ := NewGuided(info, 1)
	as, _ := NewAIDStatic(info, 1)
	ah, _ := NewAIDHybrid(info, 1, 0.8)
	ad, _ := NewAIDDynamic(info, 1, 5)
	ao, _ := NewAIDStaticOffline(info, 1, []float64{3, 1})
	for _, c := range []struct {
		s    Scheduler
		want string
	}{
		{st, "static"}, {sc, "static-chunked"}, {dy, "dynamic"}, {gu, "guided"},
		{as, "aid-static"}, {ah, "aid-hybrid"}, {ad, "aid-dynamic"}, {ao, "aid-static"},
	} {
		if c.s.Name() != c.want {
			t.Errorf("Name() = %q, want %q", c.s.Name(), c.want)
		}
	}
}

// --- AID-static ---

func TestAIDStaticSFEstimate(t *testing.T) {
	info := twoTypeInfo(10000, 2, 2)
	a, _ := NewAIDStatic(info, 1)
	virtualExec(t, a, info, []int64{100, 300}) // true SF = 3
	sf, ok := a.SFEstimate()
	if !ok {
		t.Fatal("SF never computed")
	}
	if sf[1] != 1 {
		t.Errorf("slowest-type SF = %v, want 1", sf[1])
	}
	if sf[0] < 2.7 || sf[0] > 3.3 {
		t.Errorf("estimated SF = %v, want ~3", sf[0])
	}
}

func TestAIDStaticProportionalDistribution(t *testing.T) {
	// With SF=3, NB=NS=2: k = NI/(2*3+2) = NI/8; big threads get ~3k each.
	info := twoTypeInfo(8000, 2, 2)
	a, _ := NewAIDStatic(info, 1)
	counts, finish := virtualExec(t, a, info, []int64{100, 300})
	for tid := 0; tid < 2; tid++ {
		if counts[tid] < 2700 || counts[tid] > 3300 {
			t.Errorf("big thread %d got %d iterations, want ~3000", tid, counts[tid])
		}
	}
	for tid := 2; tid < 4; tid++ {
		if counts[tid] < 700 || counts[tid] > 1300 {
			t.Errorf("small thread %d got %d iterations, want ~1000", tid, counts[tid])
		}
	}
	// The whole point: finish times should be nearly equal (balanced load).
	var minF, maxF int64 = finish[0], finish[0]
	for _, f := range finish[1:] {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if float64(maxF-minF) > 0.10*float64(maxF) {
		t.Errorf("AID-static imbalance too high: finish times %v", finish)
	}
}

func TestAIDStaticBeatsStaticOnAMP(t *testing.T) {
	// Completion time under AID-static must clearly beat plain static for a
	// uniform loop on an asymmetric machine (the Fig. 1 scenario).
	info := twoTypeInfo(8000, 2, 2)
	st, _ := NewStatic(info)
	_, finishStatic := virtualExec(t, st, info, []int64{100, 300})
	a, _ := NewAIDStatic(info, 1)
	_, finishAID := virtualExec(t, a, info, []int64{100, 300})
	var tStatic, tAID int64
	for i := range finishStatic {
		if finishStatic[i] > tStatic {
			tStatic = finishStatic[i]
		}
		if finishAID[i] > tAID {
			tAID = finishAID[i]
		}
	}
	// static is bounded by small cores: 2000 iter * 300ns = 600000.
	// Ideal AID: ~3000*100 = 300000. Require at least a 1.5x win.
	if float64(tStatic)/float64(tAID) < 1.5 {
		t.Errorf("AID-static %dns vs static %dns: expected >=1.5x win", tAID, tStatic)
	}
}

func TestAIDStaticSymmetricPlatformDegradesToEven(t *testing.T) {
	// On a symmetric machine (equal speeds) AID-static should converge to a
	// near-even distribution (SF ~ 1).
	info := twoTypeInfo(8000, 2, 2)
	a, _ := NewAIDStatic(info, 1)
	counts, _ := virtualExec(t, a, info, []int64{200, 200})
	for tid, c := range counts {
		if c < 1600 || c > 2400 {
			t.Errorf("thread %d got %d iterations, want ~2000 on symmetric platform", tid, c)
		}
	}
	sf, ok := a.SFEstimate()
	if !ok || sf[0] < 0.9 || sf[0] > 1.1 {
		t.Errorf("symmetric SF estimate = %v (ok=%v), want ~1", sf, ok)
	}
}

func TestAIDStaticSingleCoreType(t *testing.T) {
	// All threads on one core type (e.g. the 4S configuration of Fig. 1b).
	info := LoopInfo{NI: 4000, NThreads: 4, NumTypes: 2, TypeOf: func(int) int { return 1 }}
	a, _ := NewAIDStatic(info, 1)
	counts, _ := virtualExec(t, a, info, []int64{100, 300})
	for tid, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("thread %d got %d, want ~1000", tid, c)
		}
	}
}

func TestAIDStaticTinyLoop(t *testing.T) {
	// Fewer iterations than threads: must terminate and cover exactly.
	for _, ni := range []int64{0, 1, 2, 3, 5, 7} {
		info := twoTypeInfo(ni, 2, 2)
		a, _ := NewAIDStatic(info, 1)
		virtualExec(t, a, info, []int64{100, 300})
	}
}

func TestAIDStaticOfflineSkipsSampling(t *testing.T) {
	info := twoTypeInfo(8000, 2, 2)
	a, err := NewAIDStaticOffline(info, 1, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// First call must already be the final AID assignment: ~3000 iterations.
	asg, ok := a.Next(0, 0)
	if !ok || asg.N() < 2900 || asg.N() > 3100 {
		t.Errorf("offline-SF first assignment = %d iterations, want ~3000", asg.N())
	}
	if sf, ok := a.SFEstimate(); !ok || sf[0] != 3 {
		t.Errorf("offline SFEstimate = %v, %v", sf, ok)
	}
}

func TestAIDStaticOfflineCoverage(t *testing.T) {
	info := twoTypeInfo(5000, 2, 2)
	a, _ := NewAIDStaticOffline(info, 1, []float64{3, 1})
	virtualExec(t, a, info, []int64{100, 300})
}

func TestAIDStaticOfflineMispredictionStillCompletes(t *testing.T) {
	// Feeding a wildly wrong offline SF must still complete the loop with
	// exact coverage (imbalance, not incorrectness — the Fig. 9 scenario).
	info := twoTypeInfo(5000, 2, 2)
	a, _ := NewAIDStaticOffline(info, 1, []float64{8, 1})
	counts, _ := virtualExec(t, a, info, []int64{100, 300})
	if counts[0] <= counts[2] {
		t.Errorf("big thread should still get more iterations: %v", counts)
	}
}

// --- AID-hybrid ---

func TestAIDHybridSplitsStaticAndDynamicParts(t *testing.T) {
	info := twoTypeInfo(10000, 2, 2)
	a, _ := NewAIDHybrid(info, 1, 0.8)
	if a.Pct() != 0.8 {
		t.Errorf("Pct() = %v", a.Pct())
	}
	counts, finish := virtualExec(t, a, info, []int64{100, 300})
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Fatalf("covered %d, want 10000", total)
	}
	// Finish times balanced within a few percent (better than AID-static
	// could do if SF drifted — here it mainly checks the tail drain).
	var minF, maxF int64 = finish[0], finish[0]
	for _, f := range finish[1:] {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if float64(maxF-minF) > 0.05*float64(maxF) {
		t.Errorf("AID-hybrid tail imbalance too high: %v", finish)
	}
}

func TestAIDHybridBalancesDriftingCost(t *testing.T) {
	// Iteration cost drifts upward through the loop, so the sampled SF
	// under-weights late iterations. AID-hybrid's dynamic tail must absorb
	// the drift better than AID-static (the EP trace of Fig. 4).
	info := twoTypeInfo(8000, 2, 2)
	driftExec := func(s Scheduler) (maxFinish, minFinish int64) {
		clock := make([]int64, info.NThreads)
		active := make([]bool, info.NThreads)
		for i := range active {
			active[i] = true
		}
		perIter := []int64{100, 300}
		for {
			tid := -1
			for i := range clock {
				if active[i] && (tid == -1 || clock[i] < clock[tid]) {
					tid = i
				}
			}
			if tid == -1 {
				break
			}
			asg, ok := s.Next(tid, clock[tid])
			if !ok {
				active[tid] = false
				continue
			}
			for i := asg.Lo; i < asg.Hi; i++ {
				// cost grows 2x across the iteration space
				scale := 1.0 + float64(i)/float64(info.NI)
				clock[tid] += int64(float64(perIter[info.TypeOf(tid)]) * scale)
			}
		}
		minFinish, maxFinish = clock[0], clock[0]
		for _, c := range clock[1:] {
			if c < minFinish {
				minFinish = c
			}
			if c > maxFinish {
				maxFinish = c
			}
		}
		return maxFinish, minFinish
	}
	as, _ := NewAIDStatic(info, 1)
	ah, _ := NewAIDHybrid(info, 1, 0.8)
	maxS, minS := driftExec(as)
	maxH, minH := driftExec(ah)
	imbS := float64(maxS-minS) / float64(maxS)
	imbH := float64(maxH-minH) / float64(maxH)
	if imbH >= imbS {
		t.Errorf("hybrid imbalance %v should beat AID-static %v under drift", imbH, imbS)
	}
	if maxH >= maxS {
		t.Errorf("hybrid completion %d should beat AID-static %d under drift", maxH, maxS)
	}
}

func TestAIDHybridLowPct(t *testing.T) {
	info := twoTypeInfo(5000, 2, 2)
	a, _ := NewAIDHybrid(info, 1, 0.6)
	virtualExec(t, a, info, []int64{100, 300})
}

// --- AID-dynamic ---

func TestAIDDynamicCoverageAndR(t *testing.T) {
	info := twoTypeInfo(20000, 2, 2)
	a, _ := NewAIDDynamic(info, 1, 5)
	m, M := a.Chunks()
	if m != 1 || M != 5 {
		t.Errorf("Chunks() = %d,%d", m, M)
	}
	counts, _ := virtualExec(t, a, info, []int64{100, 300})
	r, ok := a.R()
	if !ok {
		t.Fatal("R never computed")
	}
	if r[0] < 2.0 || r[0] > 4.0 {
		t.Errorf("converged R = %v, want ~3", r[0])
	}
	bigShare := float64(counts[0]+counts[1]) / float64(info.NI)
	// With SF=3, big threads should take ~75% of the iterations.
	if bigShare < 0.65 || bigShare > 0.85 {
		t.Errorf("big-core share = %v, want ~0.75 (counts %v)", bigShare, counts)
	}
}

func TestAIDDynamicFewerPoolAccessesThanDynamic(t *testing.T) {
	// The design goal (§4.2): AID-dynamic reduces pool accesses relative to
	// dynamic with the same minor chunk.
	info := twoTypeInfo(20000, 2, 2)
	countAccesses := func(s Scheduler) int {
		clock := make([]int64, info.NThreads)
		active := make([]bool, info.NThreads)
		for i := range active {
			active[i] = true
		}
		perIter := []int64{100, 300}
		accesses := 0
		for {
			tid := -1
			for i := range clock {
				if active[i] && (tid == -1 || clock[i] < clock[tid]) {
					tid = i
				}
			}
			if tid == -1 {
				break
			}
			asg, ok := s.Next(tid, clock[tid])
			accesses += int(asg.PoolAccesses)
			if !ok {
				active[tid] = false
				continue
			}
			clock[tid] += asg.N() * perIter[info.TypeOf(tid)]
		}
		return accesses
	}
	d, _ := NewDynamic(info, 1)
	ad, _ := NewAIDDynamic(info, 1, 5)
	dynAcc := countAccesses(d)
	aidAcc := countAccesses(ad)
	if aidAcc >= dynAcc/2 {
		t.Errorf("AID-dynamic pool accesses = %d, dynamic = %d; want < half", aidAcc, dynAcc)
	}
}

func TestAIDDynamicTailSwitch(t *testing.T) {
	info := twoTypeInfo(2000, 2, 2)
	a, _ := NewAIDDynamic(info, 1, 50)
	virtualExec(t, a, info, []int64{100, 300})
	if !a.InTail() {
		t.Error("tail switch never engaged")
	}
}

func TestAIDDynamicUnevenIterations(t *testing.T) {
	// Cost varies per iteration; AID-dynamic must still cover exactly and
	// keep threads balanced via R smoothing.
	info := twoTypeInfo(10000, 2, 2)
	a, _ := NewAIDDynamic(info, 1, 10)
	clock := make([]int64, info.NThreads)
	active := make([]bool, info.NThreads)
	for i := range active {
		active[i] = true
	}
	covered := make([]int32, info.NI)
	for {
		tid := -1
		for i := range clock {
			if active[i] && (tid == -1 || clock[i] < clock[tid]) {
				tid = i
			}
		}
		if tid == -1 {
			break
		}
		asg, ok := a.Next(tid, clock[tid])
		if !ok {
			active[tid] = false
			continue
		}
		base := int64(100)
		if info.TypeOf(tid) == 1 {
			base = 300
		}
		for i := asg.Lo; i < asg.Hi; i++ {
			covered[i]++
			cost := base
			if i%7 == 0 {
				cost *= 5 // heavy iterations sprinkled in
			}
			clock[tid] += cost
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("iteration %d covered %d times", i, c)
		}
	}
}

func TestAIDDynamicTinyLoops(t *testing.T) {
	for _, ni := range []int64{0, 1, 3, 7, 20} {
		info := twoTypeInfo(ni, 2, 2)
		a, _ := NewAIDDynamic(info, 1, 5)
		virtualExec(t, a, info, []int64{100, 300})
	}
}

func TestAIDDynamicSmoothingConverges(t *testing.T) {
	// Feed a loop whose true SF differs from the initial estimate the
	// sampling could see, and check R converges near the true ratio.
	info := twoTypeInfo(100000, 2, 2)
	a, _ := NewAIDDynamic(info, 1, 20)
	virtualExec(t, a, info, []int64{100, 450}) // SF = 4.5
	r, ok := a.R()
	if !ok {
		t.Fatal("no R")
	}
	if r[0] < 3.5 || r[0] > 5.5 {
		t.Errorf("R = %v, want ~4.5", r[0])
	}
}

// --- concurrency (real goroutines, exercised under -race) ---

func concurrentExec(t *testing.T, s Scheduler, info LoopInfo) {
	t.Helper()
	covered := make([]int32, info.NI)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for tid := 0; tid < info.NThreads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			now := int64(tid) // synthetic, strictly increasing per thread
			local := make([][2]int64, 0, 64)
			for {
				asg, ok := s.Next(tid, now)
				if !ok {
					break
				}
				now += asg.N() * 100
				local = append(local, [2]int64{asg.Lo, asg.Hi})
			}
			mu.Lock()
			for _, r := range local {
				for i := r[0]; i < r[1]; i++ {
					covered[i]++
				}
			}
			mu.Unlock()
		}(tid)
	}
	wg.Wait()
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("%s: iteration %d covered %d times under concurrency", s.Name(), i, c)
		}
	}
}

func TestConcurrentCoverageAllSchedulers(t *testing.T) {
	info := twoTypeInfo(30000, 2, 2)
	make := []func() Scheduler{
		func() Scheduler { s, _ := NewDynamic(info, 3); return s },
		func() Scheduler { s, _ := NewGuided(info, 1); return s },
		func() Scheduler { s, _ := NewAIDStatic(info, 1); return s },
		func() Scheduler { s, _ := NewAIDHybrid(info, 1, 0.8); return s },
		func() Scheduler { s, _ := NewAIDDynamic(info, 1, 5); return s },
		func() Scheduler { s, _ := NewAIDStaticOffline(info, 1, []float64{3, 1}); return s },
	}
	for _, mk := range make {
		s := mk()
		t.Run(s.Name(), func(t *testing.T) { concurrentExec(t, s, info) })
	}
}

// --- property tests ---

func TestPropertyExactCoverageAllSchedulers(t *testing.T) {
	f := func(niRaw uint16, nBigRaw, nSmallRaw, chunkRaw uint8, pick uint8) bool {
		ni := int64(niRaw % 4000)
		nBig := 1 + int(nBigRaw)%4
		nSmall := 1 + int(nSmallRaw)%4
		chunk := int64(chunkRaw%16) + 1
		info := twoTypeInfo(ni, nBig, nSmall)
		var s Scheduler
		switch pick % 7 {
		case 0:
			s, _ = NewStatic(info)
		case 1:
			s, _ = NewStaticChunked(info, chunk)
		case 2:
			s, _ = NewDynamic(info, chunk)
		case 3:
			s, _ = NewGuided(info, chunk)
		case 4:
			s, _ = NewAIDStatic(info, chunk)
		case 5:
			s, _ = NewAIDHybrid(info, chunk, 0.8)
		case 6:
			s, _ = NewAIDDynamic(info, chunk, chunk*5)
		}
		// Inline coverage check, mirroring virtualExec without *testing.T.
		counts := make([]int32, ni)
		clock := make([]int64, info.NThreads)
		active := make([]bool, info.NThreads)
		for i := range active {
			active[i] = true
		}
		perIter := []int64{100, 300}
		for {
			tid := -1
			for i := range clock {
				if active[i] && (tid == -1 || clock[i] < clock[tid]) {
					tid = i
				}
			}
			if tid == -1 {
				break
			}
			asg, ok := s.Next(tid, clock[tid])
			if !ok {
				active[tid] = false
				continue
			}
			if asg.Lo < 0 || asg.Hi > ni || asg.Lo >= asg.Hi {
				return false
			}
			for i := asg.Lo; i < asg.Hi; i++ {
				counts[i]++
			}
			clock[tid] += asg.N() * perIter[info.TypeOf(tid)]
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestThreadStateString(t *testing.T) {
	for st, want := range map[threadState]string{
		stNew: "NEW", stSampling: "SAMPLING", stSamplingWait: "SAMPLING_WAIT",
		stAID: "AID", stSamplingWait2: "SAMPLING_WAIT2", stDrain: "DRAIN",
		threadState(99): "threadState(99)",
	} {
		if got := st.String(); got != want {
			t.Errorf("threadState(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

func TestMigrateChangesAllotments(t *testing.T) {
	// Direct Migratable coverage: demote thread 0 (big->small) before the
	// final AID-static allotment; its allotment shrinks to the small share.
	info := twoTypeInfo(8000, 2, 2)
	a, _ := NewAIDStatic(info, 1)
	var m Migratable = a
	m.Migrate(0, 1, 0)
	counts, _ := virtualExec(t, a, info, []int64{100, 300})
	if counts[0] >= counts[1] {
		t.Errorf("demoted thread got %d iterations, big thread got %d", counts[0], counts[1])
	}
	// Out-of-range migration must be ignored.
	m.Migrate(0, 99, 0)
	m.Migrate(0, -1, 0)
}

func TestMigrateAIDDynamicDirect(t *testing.T) {
	info := twoTypeInfo(20000, 2, 2)
	a, _ := NewAIDDynamic(info, 1, 10)
	var m Migratable = a
	m.Migrate(3, 0, 0) // promote a small thread before sampling
	m.Migrate(3, 99, 0)
	counts, _ := virtualExec(t, a, info, []int64{100, 300})
	// Thread 3 is treated as big: it should out-receive thread 2 (small).
	if counts[3] <= counts[2] {
		t.Errorf("promoted thread got %d iterations, small thread got %d", counts[3], counts[2])
	}
}

func TestSetAblationNoTailSwitch(t *testing.T) {
	info := twoTypeInfo(2000, 2, 2)
	a, _ := NewAIDDynamic(info, 1, 50)
	a.SetAblation(true, true)
	virtualExec(t, a, info, []int64{100, 300}) // still exact coverage
	if a.InTail() {
		t.Error("tail switch engaged despite ablation")
	}
}

func TestClampR(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{0.01, 0.25}, {0.25, 0.25}, {1, 1}, {64, 64}, {1000, 64},
	} {
		if got := clampR(c.in); got != c.want {
			t.Errorf("clampR(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
