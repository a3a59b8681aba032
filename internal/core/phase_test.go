package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPhaseCompleteExactlyOneLast: the phase word is the one last-measurer
// detector of every AID scheduler. Under concurrent reports exactly one
// complete of an epoch says last, and once the next epoch is opened it
// detects its own last reporter the same way.
func TestPhaseCompleteExactlyOneLast(t *testing.T) {
	const threads = 32
	var p phaseWord
	p.open(0, threads)
	for epoch := uint32(0); epoch < 2; epoch++ {
		var lasts atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if p.complete(epoch) {
					lasts.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := lasts.Load(); n != 1 {
			t.Fatalf("epoch %d: %d reports saw themselves last, want exactly 1", epoch, n)
		}
		if got := p.epoch(); got != epoch {
			t.Fatalf("complete moved the epoch to %d, want %d until the next open", got, epoch)
		}
		p.open(epoch+1, threads)
	}
}

// TestPhaseCompletePanics: a report against an epoch the word has left, or
// one more report than the epoch has threads, is a state-machine bug.
func TestPhaseCompletePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var p phaseWord
	p.open(0, 2)
	p.complete(0)
	p.complete(0)
	mustPanic("a third report of a two-thread epoch", func() { p.complete(0) })
	p.open(1, 2)
	mustPanic("a report for the stale epoch 0", func() { p.complete(0) })
	if p.complete(1) {
		t.Error("the first report of epoch 1 said last")
	}
}
