package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fair"
)

// spyPolicy wraps a real policy and records every hook the registry's fleet
// drives: Pick candidate sets and Retire notifications. The fleet calls both
// under the registry lock; the mutex makes the test goroutine's reads
// race-clean.
type spyPolicy struct {
	inner fair.Policy

	mu      sync.Mutex
	picked  [][]uint64 // per Pick call: the candidate IDs
	retired []uint64
}

func newSpyPolicy() *spyPolicy {
	return &spyPolicy{inner: fair.NewWeightedRoundRobin(0)}
}

func (s *spyPolicy) Name() string { return "spy" }

func (s *spyPolicy) Pick(tid int, cands []fair.Candidate) (int, int) {
	s.mu.Lock()
	ids := make([]uint64, len(cands))
	for i, c := range cands {
		ids[i] = c.ID
	}
	s.picked = append(s.picked, ids)
	s.mu.Unlock()
	return s.inner.Pick(tid, cands)
}

func (s *spyPolicy) Retire(id uint64) {
	s.mu.Lock()
	s.retired = append(s.retired, id)
	s.mu.Unlock()
	if rt, ok := s.inner.(fair.Retirer); ok {
		rt.Retire(id)
	}
}

// TestRegistryPolicyHooks drives the single→multi tenant transition through
// the policy: a lone loop is offered to Pick as the only candidate, a second
// concurrent tenant forces a Pick over both, and each barrier release
// Retires its loop ID so cursor state cannot leak.
func TestRegistryPolicyHooks(t *testing.T) {
	spy := newSpyPolicy()
	reg, err := NewRegistry(RegistryConfig{NThreads: 4, Policy: spy})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// Loop A blocks in its body until loop B has been admitted, so both are
	// runnable together and the post-gate re-pick sees two candidates. B is
	// only submitted once a worker is inside A's body — i.e. after a pick
	// that saw A as the lone candidate.
	gate := make(chan struct{})
	var started atomic.Int32
	a, err := reg.Submit(LoopRequest{N: 64, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 4},
		Body: func(_ int, _, _ int64) { started.Add(1); <-gate }})
	if err != nil {
		t.Fatal(err)
	}
	for started.Load() == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	b, err := reg.Submit(LoopRequest{N: 64, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 4},
		Body: func(_ int, _, _ int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	a.Wait()
	b.Wait()
	reg.Close()

	spy.mu.Lock()
	defer spy.mu.Unlock()
	lone, both := false, false
	for _, ids := range spy.picked {
		lone = lone || len(ids) == 1 && ids[0] == a.ID()
		both = both || len(ids) == 2
	}
	if !lone {
		t.Error("no Pick offered the lone loop as its only candidate")
	}
	if !both {
		t.Error("no Pick saw both tenants as candidates")
	}
	ret := map[uint64]bool{}
	for _, id := range spy.retired {
		ret[id] = true
	}
	if !ret[a.ID()] || !ret[b.ID()] {
		t.Errorf("Retire calls %v missing a loop; want both %d and %d", spy.retired, a.ID(), b.ID())
	}
}
