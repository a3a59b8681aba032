package rt

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
)

// --- Team (real executor) ---

func TestNewTeamDefaults(t *testing.T) {
	team, err := NewTeam(TeamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if team.NThreads() != 8 {
		t.Errorf("default team size = %d, want 8 (Platform A cores)", team.NThreads())
	}
	// Under the default BS binding, thread 0 is on a big core (slowdown 1)
	// and thread 7 on a small one (slowdown > 1).
	if team.Slowdown(0) != 1 {
		t.Errorf("thread 0 slowdown = %v, want 1", team.Slowdown(0))
	}
	if team.Slowdown(7) <= 1.5 {
		t.Errorf("thread 7 slowdown = %v, want > 1.5", team.Slowdown(7))
	}
}

func TestNewTeamValidation(t *testing.T) {
	if _, err := NewTeam(TeamConfig{NThreads: 99}); err == nil {
		t.Error("oversubscribed team accepted")
	}
	if _, err := NewTeam(TeamConfig{Profile: amp.Profile{ILP: 7}}); err == nil {
		t.Error("bad profile accepted")
	}
}

// TestNewTeamThreadCountMessage pins the validation contract: 0 is the
// documented "platform default" value and must be accepted, negatives and
// oversubscription must be rejected, and the error message must state the
// actual accepted range [0, NumCores] including the meaning of 0 — the
// message used to claim [1, N] while silently defaulting 0.
func TestNewTeamThreadCountMessage(t *testing.T) {
	team, err := NewTeam(TeamConfig{NThreads: 0})
	if err != nil {
		t.Fatalf("NThreads 0 rejected: %v", err)
	}
	if team.NThreads() != 8 {
		t.Errorf("NThreads 0 defaulted to %d, want the platform core count 8", team.NThreads())
	}
	for _, n := range []int{-1, 9, 99} {
		_, err := NewTeam(TeamConfig{NThreads: n})
		if err == nil {
			t.Errorf("NThreads %d accepted", n)
			continue
		}
		if !strings.Contains(err.Error(), "[0,8]") || !strings.Contains(err.Error(), "0 selects") {
			t.Errorf("NThreads %d error %q does not state the accepted range and the 0 default", n, err)
		}
	}
}

func TestParallelForCoverage(t *testing.T) {
	for _, sched := range []core.Schedule{
		{Kind: core.KindStatic},
		{Kind: core.KindDynamic, Chunk: 7},
		{Kind: core.KindGuided},
		{Kind: core.KindAIDStatic},
		{Kind: core.KindAIDHybrid, Pct: 0.7},
		{Kind: core.KindAIDDynamic, Chunk: 1, Major: 8},
	} {
		t.Run(sched.String(), func(t *testing.T) {
			team, err := NewTeam(TeamConfig{NThreads: 4, Schedule: sched})
			if err != nil {
				t.Fatal(err)
			}
			const n = 5000
			hits := make([]int32, n)
			if err := team.ParallelFor(n, func(i int64) {
				atomic.AddInt32(&hits[i], 1)
			}); err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("iteration %d executed %d times", i, h)
				}
			}
		})
	}
}

func TestParallelForChunked(t *testing.T) {
	team, err := NewTeam(TeamConfig{NThreads: 4, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 16}})
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	if err := team.ParallelForChunked(1000, func(lo, hi int64) {
		sum.Add(hi - lo)
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 1000 {
		t.Errorf("chunked coverage = %d, want 1000", sum.Load())
	}
}

func TestParallelForNegativeTripCount(t *testing.T) {
	team, _ := NewTeam(TeamConfig{NThreads: 2})
	if err := team.ParallelFor(-1, func(int64) {}); err == nil {
		t.Error("negative trip count accepted")
	}
}

func TestParallelForEmptyLoop(t *testing.T) {
	team, _ := NewTeam(TeamConfig{NThreads: 2})
	ran := false
	if err := team.ParallelFor(0, func(int64) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("body ran for empty loop")
	}
}

func TestParallelForAIDAuto(t *testing.T) {
	team, err := NewTeam(TeamConfig{NThreads: 4, Schedule: core.Schedule{Kind: core.KindAIDAuto, Chunk: 32, Major: 64}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	hits := make([]int32, n)
	if err := team.ParallelFor(n, func(i int64) {
		atomic.AddInt32(&hits[i], 1)
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
}

func TestWorkStealSchedule(t *testing.T) {
	s, err := core.ParseSchedule("work-steal,16")
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != core.KindWorkSteal || s.Chunk != 16 {
		t.Errorf("core.ParseSchedule(work-steal,16) = %+v", s)
	}
	if got := s.String(); got != "work-steal/16" {
		t.Errorf("String() = %q", got)
	}
	info := core.LoopInfo{NI: 100, NThreads: 4, NumTypes: 2, TypeOf: func(tid int) int { return tid % 2 }}
	sc, err := s.Factory()(info)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != "work-steal" {
		t.Errorf("factory built %q", sc.Name())
	}
	team, err := NewTeam(TeamConfig{NThreads: 4, Schedule: s})
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	if err := team.ParallelForChunked(3000, func(lo, hi int64) { sum.Add(hi - lo) }); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 3000 {
		t.Errorf("coverage %d, want 3000", sum.Load())
	}
}
