//go:build linux

package rt

import (
	"math/bits"
	"runtime"
	"sync"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
)

// cpuCount is the number of CPUs in m.
func cpuCount(m cpuMask) int {
	n := 0
	for _, word := range m {
		n += bits.OnesCount64(word)
	}
	return n
}

// workerMasks runs one static loop on a fresh nthreads-worker fleet and
// returns the CPU mask each worker's thread held while it ran a body.
func workerMasks(t *testing.T, nthreads int) []cpuMask {
	t.Helper()
	a := amp.PlatformA()
	clusters := append([]amp.Cluster(nil), a.Clusters...)
	clusters[0].NumCores, clusters[1].NumCores = 1, max(nthreads-1, 1)
	pl, err := amp.New("A-placement", clusters, a.Overhead)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(RegistryConfig{Platform: pl, NThreads: nthreads})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	masks := make([]cpuMask, nthreads)
	read := make([]bool, nthreads)
	l, err := reg.Submit(LoopRequest{N: int64(4 * nthreads), Schedule: core.Schedule{Kind: core.KindStatic},
		Body: func(tid int, _, _ int64) {
			masks[tid], read[tid] = affinity()
		}})
	if err != nil {
		t.Fatal(err)
	}
	l.Wait()
	for tid, ok := range read {
		if !ok {
			t.Fatalf("worker %d ran no body or could not read its mask", tid)
		}
	}
	return masks
}

// TestWorkerPlacement: a fleet that fits the process's CPU mask binds each
// worker's thread to a CPU of its own; a fleet that does not is left to the
// kernel, every worker holding the whole mask; and no bound thread outlives
// its registry, so a goroutine that locks a thread after Close sees the
// process's mask again.
func TestWorkerPlacement(t *testing.T) {
	proc, ok := affinity()
	if !ok {
		t.Skip("sched_getaffinity refused")
	}
	ncpu := cpuCount(proc)
	t.Run("bound", func(t *testing.T) {
		var taken cpuMask
		for tid, m := range workerMasks(t, min(ncpu, 4)) {
			if cpuCount(m) != 1 {
				t.Fatalf("worker %d runs on %d CPUs, want 1", tid, cpuCount(m))
			}
			for w := range m {
				if m[w]&^proc[w] != 0 {
					t.Fatalf("worker %d bound outside the process's mask", tid)
				}
				if m[w]&taken[w] != 0 {
					t.Fatalf("worker %d shares its CPU with another worker", tid)
				}
				taken[w] |= m[w]
			}
		}
	})
	t.Run("oversubscribed", func(t *testing.T) {
		if ncpu > 64 {
			t.Skipf("a fleet larger than %d CPUs is too many threads for a unit test", ncpu)
		}
		for tid, m := range workerMasks(t, ncpu+1) {
			if m != proc {
				t.Fatalf("worker %d of an oversubscribed fleet was bound (%d CPUs of %d)", tid, cpuCount(m), ncpu)
			}
		}
	})
	t.Run("after close", func(t *testing.T) {
		// Enough goroutines, each holding a thread of its own while the
		// others read, to take every idle thread the runtime kept.
		n := 4 * (runtime.GOMAXPROCS(0) + ncpu + 1)
		masks := make([]cpuMask, n)
		var read, done sync.WaitGroup
		release := make(chan struct{})
		read.Add(n)
		done.Add(n)
		for i := range masks {
			go func(i int) {
				defer done.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				masks[i], _ = affinity()
				read.Done()
				<-release
			}(i)
		}
		read.Wait()
		close(release)
		done.Wait()
		for i, m := range masks {
			if m != proc {
				t.Fatalf("goroutine %d locked a thread holding %d CPUs of %d: a bound thread went back to the runtime", i, cpuCount(m), ncpu)
			}
		}
	})
}
