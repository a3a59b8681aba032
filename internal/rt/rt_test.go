package rt

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindStatic: "static", KindStaticChunked: "static-chunked",
		KindDynamic: "dynamic", KindGuided: "guided",
		KindAIDStatic: "aid-static", KindAIDHybrid: "aid-hybrid",
		KindAIDDynamic: "aid-dynamic", Kind(42): "Kind(42)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestScheduleString(t *testing.T) {
	cases := []struct {
		s    Schedule
		want string
	}{
		{Schedule{Kind: KindStatic}, "static"},
		{Schedule{Kind: KindStaticChunked, Chunk: 4}, "static/4"},
		{Schedule{Kind: KindDynamic}, "dynamic/1"},
		{Schedule{Kind: KindDynamic, Chunk: 5}, "dynamic/5"},
		{Schedule{Kind: KindGuided, Chunk: 2}, "guided/2"},
		{Schedule{Kind: KindAIDStatic}, "AID-static"},
		{Schedule{Kind: KindAIDStatic, OfflineSF: []float64{3, 1}}, "AID-static(offline-SF)"},
		{Schedule{Kind: KindAIDHybrid}, "AID-hybrid(80%)"},
		{Schedule{Kind: KindAIDHybrid, Pct: 0.6}, "AID-hybrid(60%)"},
		{Schedule{Kind: KindAIDDynamic}, "AID-dynamic/1,5"},
		{Schedule{Kind: KindAIDDynamic, Chunk: 2, Major: 10}, "AID-dynamic/2,10"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		in   string
		want Schedule
	}{
		{"static", Schedule{Kind: KindStatic}},
		{"static,8", Schedule{Kind: KindStaticChunked, Chunk: 8}},
		{"dynamic", Schedule{Kind: KindDynamic}},
		{"dynamic,4", Schedule{Kind: KindDynamic, Chunk: 4}},
		{"guided,2", Schedule{Kind: KindGuided, Chunk: 2}},
		{"AID-STATIC", Schedule{Kind: KindAIDStatic}},
		{"aid-static,2", Schedule{Kind: KindAIDStatic, Chunk: 2}},
		{"aid-hybrid,60", Schedule{Kind: KindAIDHybrid, Pct: 0.6}},
		{"aid-dynamic,1,5", Schedule{Kind: KindAIDDynamic, Chunk: 1, Major: 5}},
		{" dynamic , 3 ", Schedule{Kind: KindDynamic, Chunk: 3}},
	}
	for _, c := range cases {
		got, err := ParseSchedule(c.in)
		if err != nil {
			t.Errorf("ParseSchedule(%q) error: %v", c.in, err)
			continue
		}
		if got.Kind != c.want.Kind || got.Chunk != c.want.Chunk ||
			got.Major != c.want.Major || got.Pct != c.want.Pct {
			t.Errorf("ParseSchedule(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	bad := []string{
		"", "nonsense", "dynamic,0", "dynamic,-3", "dynamic,x", "dynamic,1,2",
		"aid-hybrid,0", "aid-hybrid,150", "aid-dynamic,1,2,3", "static,1,2",
	}
	for _, in := range bad {
		if _, err := ParseSchedule(in); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", in)
		}
	}
}

func TestFactoryProducesRightSchedulers(t *testing.T) {
	info := core.LoopInfo{NI: 100, NThreads: 4, NumTypes: 2, TypeOf: func(tid int) int { return tid % 2 }}
	cases := []struct {
		sched Schedule
		want  string
	}{
		{Schedule{Kind: KindStatic}, "static"},
		{Schedule{Kind: KindStaticChunked, Chunk: 2}, "static-chunked"},
		{Schedule{Kind: KindDynamic}, "dynamic"},
		{Schedule{Kind: KindGuided}, "guided"},
		{Schedule{Kind: KindAIDStatic}, "aid-static"},
		{Schedule{Kind: KindAIDStatic, OfflineSF: []float64{3, 1}}, "aid-static"},
		{Schedule{Kind: KindAIDHybrid}, "aid-hybrid"},
		{Schedule{Kind: KindAIDDynamic}, "aid-dynamic"},
	}
	for _, c := range cases {
		s, err := c.sched.Factory()(info)
		if err != nil {
			t.Errorf("factory for %v: %v", c.sched, err)
			continue
		}
		if s.Name() != c.want {
			t.Errorf("factory for %v built %q", c.sched, s.Name())
		}
	}
	if _, err := (Schedule{Kind: Kind(99)}).Factory()(info); err == nil {
		t.Error("unknown kind accepted")
	}
}

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
	for _, sched := range []Schedule{
		{Kind: KindStatic},
		{Kind: KindDynamic, Chunk: 7},
		{Kind: KindGuided},
		{Kind: KindAIDStatic},
		{Kind: KindAIDHybrid, Pct: 0.7},
		{Kind: KindAIDDynamic, Chunk: 1, Major: 8},
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
	team, err := NewTeam(TeamConfig{NThreads: 4, Schedule: Schedule{Kind: KindDynamic, Chunk: 16}})
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

func TestScheduleStringsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range []Schedule{
		{Kind: KindStatic}, {Kind: KindDynamic}, {Kind: KindGuided},
		{Kind: KindAIDStatic}, {Kind: KindAIDHybrid}, {Kind: KindAIDDynamic},
	} {
		str := s.String()
		if seen[str] {
			t.Errorf("duplicate schedule string %q", str)
		}
		seen[str] = true
		if strings.Contains(str, "Kind(") {
			t.Errorf("schedule %v renders as raw kind: %q", s, str)
		}
	}
}

func TestParseScheduleAIDAuto(t *testing.T) {
	s, err := ParseSchedule("aid-auto,2,16")
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != KindAIDAuto || s.Chunk != 2 || s.Major != 16 {
		t.Errorf("ParseSchedule(aid-auto,2,16) = %+v", s)
	}
	if _, err := ParseSchedule("aid-auto,1,2,3"); err == nil {
		t.Error("extra aid-auto parameters accepted")
	}
	if got := (Schedule{Kind: KindAIDAuto}).String(); got != "AID-auto/1,5" {
		t.Errorf("String() = %q", got)
	}
	if KindAIDAuto.String() != "aid-auto" {
		t.Errorf("Kind.String() = %q", KindAIDAuto)
	}
}

func TestFactoryAIDAuto(t *testing.T) {
	info := core.LoopInfo{NI: 100, NThreads: 4, NumTypes: 2, TypeOf: func(tid int) int { return tid % 2 }}
	s, err := (Schedule{Kind: KindAIDAuto}).Factory()(info)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "aid-auto" {
		t.Errorf("factory built %q", s.Name())
	}
}

func TestParallelForAIDAuto(t *testing.T) {
	team, err := NewTeam(TeamConfig{NThreads: 4, Schedule: Schedule{Kind: KindAIDAuto, Chunk: 32, Major: 64}})
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
	s, err := ParseSchedule("work-steal,16")
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != KindWorkSteal || s.Chunk != 16 {
		t.Errorf("ParseSchedule(work-steal,16) = %+v", s)
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

// TestScheduleCanonicalRoundTrip: ParseSchedule(s.Canonical()) must select
// the same schedule — the property run records rely on to re-run a loop
// under its recorded configuration.
func TestScheduleCanonicalRoundTrip(t *testing.T) {
	for _, txt := range []string{
		"static", "static,8", "dynamic,1", "dynamic,16", "guided,2",
		"aid-static", "aid-static,2", "aid-hybrid,70", "aid-hybrid,80,4",
		"aid-dynamic,2,10", "aid-auto,16,64", "work-steal,4",
	} {
		s, err := ParseSchedule(txt)
		if err != nil {
			t.Fatalf("%s: %v", txt, err)
		}
		c := s.Canonical()
		s2, err := ParseSchedule(c)
		if err != nil {
			t.Fatalf("%s -> Canonical %q does not parse: %v", txt, c, err)
		}
		d, d2 := s.withDefaults(), s2.withDefaults()
		if d.Kind != d2.Kind || d.Chunk != d2.Chunk || d.Major != d2.Major || d.Pct != d2.Pct {
			t.Errorf("%s -> %q round-trips to %+v, want %+v", txt, c, d2, d)
		}
		if c2 := s2.Canonical(); c2 != c {
			t.Errorf("%s: Canonical not a fixed point: %q -> %q", txt, c, c2)
		}
	}
}
