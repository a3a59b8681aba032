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
	picked  []spyPick
	retired []uint64
}

// spyPick is one Pick call's candidate set: IDs, and whether each candidate
// carried a live SF table (the table itself is the scheduler's, readable only
// under the registry lock).
type spyPick struct {
	ids []uint64
	sf  []bool
}

func newSpyPolicy() *spyPolicy {
	return &spyPolicy{inner: fair.NewWeightedRoundRobin(0)}
}

func (s *spyPolicy) Name() string { return "spy" }

func (s *spyPolicy) Pick(tid int, cands []fair.Candidate) (int, int) {
	s.mu.Lock()
	var p spyPick
	for _, c := range cands {
		p.ids = append(p.ids, c.ID)
		p.sf = append(p.sf, c.SF != nil)
	}
	s.picked = append(s.picked, p)
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

// lonePick reports whether some Pick offered loop id as its only candidate,
// and whether one such offer carried a live SF table (caller holds s.mu).
func (s *spyPolicy) lonePick(id uint64) (seen, withSF bool) {
	for _, p := range s.picked {
		if len(p.ids) == 1 && p.ids[0] == id {
			seen = true
			withSF = withSF || p.sf[0]
		}
	}
	return seen, withSF
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
	if seen, _ := spy.lonePick(a.ID()); !seen {
		t.Error("no Pick offered the lone loop as its only candidate")
	}
	both := false
	for _, p := range spy.picked {
		if len(p.ids) == 2 {
			both = true
		}
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

// TestRegistryLiveSFMidRun pins the tentpole's observability claim on the
// real engine: an AID loop's SF estimate must be pollable through
// Loop.LiveSF while the loop is still executing — not only at retirement —
// and a one-candidate Pick of that loop must carry it to the policy.
func TestRegistryLiveSFMidRun(t *testing.T) {
	spy := newSpyPolicy()
	reg, err := NewRegistry(RegistryConfig{NThreads: 4, Policy: spy})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// A per-iteration stall keeps the AID phase (the bulk of the loop) slow
	// enough for the poller, while the chunk-1 sampling phase that produces
	// the estimate finishes almost immediately.
	l, err := reg.Submit(LoopRequest{N: 20000, Schedule: core.Schedule{Kind: core.KindAIDStatic},
		Body: func(_ int, lo, hi int64) {
			for i := lo; i < hi; i += 256 {
				time.Sleep(50 * time.Microsecond)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	var midRun []float64
poll:
	for {
		select {
		case <-l.Done():
			break poll
		default:
			if sf := l.LiveSF(); sf != nil {
				midRun = sf
				break poll
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	// A lone tenant is picked once (unbounded burst), before sampling has
	// published anything. Admitting a second tenant ends every grant. An
	// empty one retires each worker at its first call, so a worker still
	// inside the AID loop's allotment, whose round-robin turn goes to the
	// newcomer first, comes back to a one-candidate Pick of the AID loop,
	// which must carry the estimate we just observed.
	l2, err := reg.Submit(LoopRequest{N: 0, Schedule: core.Schedule{Kind: core.KindDynamic},
		Body: func(_ int, _, _ int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	l2.Wait()
	stats := l.Wait()
	if midRun == nil {
		t.Fatal("LiveSF never published before the barrier released")
	}
	if len(midRun) != 2 || midRun[0] < 1 {
		t.Errorf("mid-run SF = %v; want a 2-type table with SF >= 1 for big cores", midRun)
	}
	if stats.SFEstimate == nil {
		t.Error("final stats lost the SF estimate")
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if _, withSF := spy.lonePick(l.ID()); !withSF {
		t.Error("no one-candidate Pick of the AID loop carried its live SF estimate")
	}
}

// TestRegistryLiveSFNilForConventional: schedules with no SF estimator must
// report nil rather than a fabricated table.
func TestRegistryLiveSFNilForConventional(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{NThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	l, err := reg.Submit(LoopRequest{N: 100, Schedule: core.Schedule{Kind: core.KindDynamic},
		Body: func(_ int, _, _ int64) {}})
	if err != nil {
		t.Fatal(err)
	}
	l.Wait()
	if sf := l.LiveSF(); sf != nil {
		t.Errorf("dynamic schedule reports LiveSF %v, want nil", sf)
	}
}
