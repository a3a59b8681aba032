package pool

import (
	"sync"
	"testing"
	"testing/quick"
)

// The tests down to TestTryStealFuncBadSizePanics run (all but one) on a
// one-shard pool: the bare (next, end) pair of libgomp's work_share. steal
// is its strict chunk removal.
func steal(ws *ShardedWorkShare, chunk int64) (lo, hi int64, ok bool) {
	lo, hi, _, _, ok = ws.TryStealBatchFrom(0, chunk, chunk)
	return lo, hi, ok
}

func TestTryStealSequential(t *testing.T) {
	ws := NewSharded(10, []int{1})
	lo, hi, ok := steal(ws, 4)
	if !ok || lo != 0 || hi != 4 {
		t.Fatalf("first steal: [%d,%d) ok=%v", lo, hi, ok)
	}
	lo, hi, ok = steal(ws, 4)
	if !ok || lo != 4 || hi != 8 {
		t.Fatalf("second steal: [%d,%d) ok=%v", lo, hi, ok)
	}
	// Final steal is clipped at end.
	lo, hi, ok = steal(ws, 4)
	if !ok || lo != 8 || hi != 10 {
		t.Fatalf("clipped steal: [%d,%d) ok=%v", lo, hi, ok)
	}
	if _, _, ok := steal(ws, 4); ok {
		t.Error("steal from drained pool succeeded")
	}
	if ws.Remaining() != 0 {
		t.Errorf("Remaining after drain = %d", ws.Remaining())
	}
}

func TestTryStealZeroChunkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("steal of 0 iterations did not panic")
		}
	}()
	steal(NewSharded(10, []int{1}), 0)
}

func TestEmptyLoop(t *testing.T) {
	ws := NewSharded(0, []int{1})
	if _, _, ok := steal(ws, 1); ok {
		t.Error("steal from empty loop succeeded")
	}
	if ws.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", ws.Remaining())
	}
}

func TestTryStealRest(t *testing.T) {
	ws := NewSharded(100, []int{1})
	steal(ws, 30)
	rs, _ := ws.DrainAll(0)
	if len(rs) != 1 || rs[0].Lo != 30 || rs[0].Hi != 100 {
		t.Fatalf("DrainAll: %v, want [30,100)", rs)
	}
	if rs, _ := ws.DrainAll(0); len(rs) != 0 {
		t.Errorf("DrainAll on drained pool returned %v", rs)
	}
}

// TestConcurrentStealExactCoverage is the core lock-freedom invariant: under
// heavy concurrency every iteration is claimed exactly once and nothing is
// lost or duplicated.
func TestConcurrentStealExactCoverage(t *testing.T) {
	const (
		ni      = 100000
		workers = 16
	)
	ws := NewSharded(ni, []int{1})
	var mu sync.Mutex
	claimed := make([]int32, ni)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		chunk := int64(1 + w%7) // mixed chunk sizes
		go func() {
			defer wg.Done()
			local := make([][2]int64, 0, ni/workers)
			for {
				lo, hi, ok := steal(ws, chunk)
				if !ok {
					break
				}
				local = append(local, [2]int64{lo, hi})
			}
			mu.Lock()
			for _, r := range local {
				for i := r[0]; i < r[1]; i++ {
					claimed[i]++
				}
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("iteration %d claimed %d times", i, c)
		}
	}
}

func TestConcurrentStealRestRace(t *testing.T) {
	// DrainAll racing against strict steals must still yield exact coverage.
	const ni = 50000
	ws := NewSharded(ni, []int{1})
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		rest := w%4 == 0
		go func() {
			defer wg.Done()
			sum := int64(0)
			for {
				if rest {
					rs, _ := ws.DrainAll(0)
					if len(rs) == 0 {
						break
					}
					sum += spanTotal(rs)
					continue
				}
				lo, hi, ok := steal(ws, 3)
				if !ok {
					break
				}
				sum += hi - lo
			}
			mu.Lock()
			total += sum
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != ni {
		t.Errorf("claimed %d iterations total, want %d", total, ni)
	}
}

func TestStealCoverageProperty(t *testing.T) {
	// For any (ni, chunk), repeated stealing covers [0,ni) exactly, in order.
	f := func(niRaw uint16, chunkRaw uint8) bool {
		ni := int64(niRaw % 5000)
		chunk := int64(chunkRaw%64) + 1
		ws := NewSharded(ni, []int{1})
		var cursor int64
		for {
			lo, hi, ok := steal(ws, chunk)
			if !ok {
				break
			}
			if lo != cursor || hi <= lo || hi > ni {
				return false
			}
			cursor = hi
		}
		return cursor == ni
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// guidedSize is the guided schedule's chunk rule for n threads.
func guidedSize(n int64) func(rem int64) int64 {
	return func(rem int64) int64 {
		if s := rem / n; s >= 1 {
			return s
		}
		return 1
	}
}

func TestTryStealFuncGuidedShape(t *testing.T) {
	// Guided with 4 threads: chunk sizes decrease as the pool drains.
	ws := NewSharded(1000, []int{1})
	var sizes []int64
	cursor := int64(0)
	for {
		lo, hi, _, _, ok := ws.TryStealFuncFrom(0, guidedSize(4))
		if !ok {
			break
		}
		if lo != cursor {
			t.Fatalf("non-contiguous guided steal: lo=%d want %d", lo, cursor)
		}
		cursor = hi
		sizes = append(sizes, hi-lo)
	}
	if cursor != 1000 {
		t.Fatalf("guided coverage ended at %d", cursor)
	}
	if sizes[0] != 250 {
		t.Errorf("first guided chunk = %d, want 250", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Errorf("guided chunk grew: %d -> %d at %d", sizes[i-1], sizes[i], i)
		}
	}
	if last := sizes[len(sizes)-1]; last != 1 {
		t.Errorf("last guided chunk = %d, want 1", last)
	}
}

func TestTryStealFuncConcurrent(t *testing.T) {
	const ni = 40000
	ws := NewSharded(ni, []int{1, 1})
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(home int) {
			defer wg.Done()
			sum := int64(0)
			for {
				lo, hi, _, _, ok := ws.TryStealFuncFrom(home, guidedSize(8))
				if !ok {
					break
				}
				sum += hi - lo
			}
			mu.Lock()
			total += sum
			mu.Unlock()
		}(w % 2)
	}
	wg.Wait()
	if total != ni {
		t.Errorf("claimed %d, want %d", total, ni)
	}
}

func TestTryStealFuncBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TryStealFuncFrom with zero size did not panic")
		}
	}()
	NewSharded(10, []int{1}).TryStealFuncFrom(0, func(int64) int64 { return 0 })
}
