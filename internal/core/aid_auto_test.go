package core

import (
	"fmt"
	"sync"
	"testing"
)

// noisyExec drives a scheduler with per-iteration costs that alternate
// between cheap and expensive blocks (irregular), or stay uniform.
func noisyExec(t *testing.T, s Scheduler, info LoopInfo, irregular bool) (counts []int64, finish []int64) {
	t.Helper()
	counts = make([]int64, info.NThreads)
	finish = make([]int64, info.NThreads)
	clock := make([]int64, info.NThreads)
	active := make([]bool, info.NThreads)
	for i := range active {
		active[i] = true
	}
	covered := make([]int32, info.NI)
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
			finish[tid] = clock[tid]
			continue
		}
		for i := asg.Lo; i < asg.Hi; i++ {
			covered[i]++
			cost := perIter[info.TypeOf(tid)]
			if irregular && (i/64)%3 == 0 {
				cost *= 6 // heavy blocks
			}
			clock[tid] += cost
		}
		counts[tid] += asg.N()
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("%s: iteration %d covered %d times", s.Name(), i, c)
		}
	}
	return counts, finish
}

func TestAIDAutoValidation(t *testing.T) {
	info := twoTypeInfo(100, 2, 2)
	cases := []struct {
		name           string
		chunk, major   int64
		pct, threshold float64
	}{
		{"zero-chunk", 0, 5, 0.8, 0.25},
		{"bad-pct", 1, 5, 0, 0.25},
		{"pct-high", 1, 5, 1.5, 0.25},
		{"major-lt-chunk", 4, 2, 0.8, 0.25},
		{"neg-threshold", 1, 5, 0.8, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewAIDAuto(info, c.chunk, c.pct, c.major, c.threshold); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if _, err := NewAIDAuto(twoTypeInfo(-1, 2, 2), 1, 0.8, 5, 0.25); err == nil {
		t.Error("bad info accepted")
	}
	a, err := NewAIDAuto(info, 1, 0.8, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "aid-auto" {
		t.Errorf("Name() = %q", a.Name())
	}
	if a.threshold != 0.25 {
		t.Errorf("default threshold = %v, want 0.25", a.threshold)
	}
}

func TestAIDAutoPicksStaticForUniformLoop(t *testing.T) {
	info := twoTypeInfo(10000, 2, 2)
	a, err := NewAIDAuto(info, 1, 0.9, 5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	counts, finish := noisyExec(t, a, info, false)
	irregular, cv, ok := a.Decision()
	if !ok {
		t.Fatal("no decision made")
	}
	if irregular {
		t.Errorf("uniform loop classified irregular (CV %v)", cv)
	}
	// Distribution should be asymmetric (big threads got ~3x).
	if counts[0] < counts[2]*2 {
		t.Errorf("big/small distribution not asymmetric: %v", counts)
	}
	// Balanced finish.
	var minF, maxF = finish[0], finish[0]
	for _, f := range finish[1:] {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if float64(maxF-minF) > 0.12*float64(maxF) {
		t.Errorf("uniform loop under aid-auto imbalanced: %v", finish)
	}
}

func TestAIDAutoPicksDynamicForIrregularLoop(t *testing.T) {
	info := twoTypeInfo(10000, 2, 2)
	// Sampling chunk must be large enough to see the block structure.
	a, err := NewAIDAuto(info, 128, 0.9, 256, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	noisyExec(t, a, info, true)
	irregular, cv, ok := a.Decision()
	if !ok {
		t.Fatal("no decision made")
	}
	if !irregular {
		t.Errorf("irregular loop classified uniform (CV %v)", cv)
	}
}

func TestAIDAutoIrregularBeatsAIDStaticStyle(t *testing.T) {
	// On an irregular loop, aid-auto (which switches to AID-dynamic phases)
	// should finish better balanced than a pure one-shot AID allotment.
	info := twoTypeInfo(12000, 2, 2)
	auto, _ := NewAIDAuto(info, 128, 1.0, 256, 0.25)
	_, autoFinish := noisyExec(t, auto, info, true)
	static, _ := NewAIDStatic(info, 128)
	_, staticFinish := noisyExec(t, static, info, true)
	imbalance := func(f []int64) float64 {
		mn, mx := f[0], f[0]
		for _, v := range f[1:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return float64(mx-mn) / float64(mx)
	}
	if imbalance(autoFinish) >= imbalance(staticFinish) {
		t.Errorf("aid-auto imbalance %.3f should beat AID-static's %.3f on irregular loop",
			imbalance(autoFinish), imbalance(staticFinish))
	}
}

func TestAIDAutoTinyLoops(t *testing.T) {
	for _, ni := range []int64{0, 1, 3, 7, 50} {
		info := twoTypeInfo(ni, 2, 2)
		a, err := NewAIDAuto(info, 1, 0.8, 5, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		noisyExec(t, a, info, false)
	}
}

// TestAIDAutoConcurrent runs the lock-free AID-auto on one goroutine per
// thread, each asking ReadsClock between its own Next calls while another
// goroutine polls Decision, once with a uniform cost (the hybrid path) and
// once with an irregular one (the adopted AID-dynamic). Under -race this is
// the check that the verdict is published by the sampler's epoch alone.
// Every thread's first chunk is claimed before any thread asks again, so
// the sampling window is the loop's first NThreads chunks and the verdict
// is fixed: 128-iteration chunks over the 64-iteration heavy/light blocks
// sample per-iteration times 7, 7, 2 and 7 (×64).
func TestAIDAutoConcurrent(t *testing.T) {
	for _, c := range []struct {
		name      string
		irregular bool
	}{{"uniform", false}, {"irregular", true}} {
		t.Run(c.name, func(t *testing.T) {
			info := twoTypeInfo(30000, 2, 2)
			a, _ := NewAIDAuto(info, 128, 0.8, 256, 0.25)
			cost := func(tid int, i int64) int64 {
				v := int64(100 + 200*info.TypeOf(tid))
				if c.irregular && (i/64)%3 == 0 {
					v *= 6
				}
				return v
			}
			covered := make([]int32, info.NI)
			var mu sync.Mutex
			var first, wg sync.WaitGroup
			first.Add(info.NThreads)
			done := make(chan struct{})
			polled := make(chan error)
			go func() {
				var err error
				decided := false
				for {
					select {
					case <-done:
						polled <- err
						return
					default:
					}
					irregular, cv, ok := a.Decision()
					if decided && !ok && err == nil {
						err = fmt.Errorf("Decision went back to undecided")
					}
					if ok && irregular != c.irregular && err == nil {
						err = fmt.Errorf("Decision: irregular %v (CV %v), want %v", irregular, cv, c.irregular)
					}
					decided = decided || ok
				}
			}()
			for tid := 0; tid < info.NThreads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					now := int64(tid)
					local := make([][2]int64, 0, 64)
					clocked := true
					for n := 0; ; n++ {
						asg, ok := a.Next(tid, now)
						if n == 0 {
							first.Done()
							first.Wait()
						}
						if !ok {
							break
						}
						for i := asg.Lo; i < asg.Hi; i++ {
							now += cost(tid, i)
						}
						local = append(local, [2]int64{asg.Lo, asg.Hi})
						if rc := ReadsClock(a, tid); rc && !clocked {
							t.Errorf("thread %d: ReadsClock true again after false", tid)
						} else {
							clocked = rc
						}
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
			close(done)
			if err := <-polled; err != nil {
				t.Error(err)
			}
			if irregular, cv, ok := a.Decision(); !ok || irregular != c.irregular {
				t.Errorf("final Decision: irregular %v (CV %v), decided %v; want irregular %v", irregular, cv, ok, c.irregular)
			}
			for i, n := range covered {
				if n != 1 {
					t.Fatalf("iteration %d covered %d times", i, n)
				}
			}
		})
	}
}
