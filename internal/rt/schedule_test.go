package rt

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestKindString(t *testing.T) {
	want := map[core.Kind]string{
		core.KindStatic: "static", core.KindStaticChunked: "static-chunked",
		core.KindDynamic: "dynamic", core.KindGuided: "guided",
		core.KindAIDStatic: "aid-static", core.KindAIDHybrid: "aid-hybrid",
		core.KindAIDDynamic: "aid-dynamic", core.Kind(42): "Kind(42)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestScheduleString(t *testing.T) {
	cases := []struct {
		s    core.Schedule
		want string
	}{
		{core.Schedule{Kind: core.KindStatic}, "static"},
		{core.Schedule{Kind: core.KindStaticChunked, Chunk: 4}, "static/4"},
		{core.Schedule{Kind: core.KindDynamic}, "dynamic/1"},
		{core.Schedule{Kind: core.KindDynamic, Chunk: 5}, "dynamic/5"},
		{core.Schedule{Kind: core.KindGuided, Chunk: 2}, "guided/2"},
		{core.Schedule{Kind: core.KindAIDStatic}, "AID-static"},
		{core.Schedule{Kind: core.KindAIDStatic, OfflineSF: []float64{3, 1}}, "AID-static(offline-SF)"},
		{core.Schedule{Kind: core.KindAIDHybrid}, "AID-hybrid(80%)"},
		{core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.6}, "AID-hybrid(60%)"},
		{core.Schedule{Kind: core.KindAIDDynamic}, "AID-dynamic/1,5"},
		{core.Schedule{Kind: core.KindAIDDynamic, Chunk: 2, Major: 10}, "AID-dynamic/2,10"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestScheduleStringsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range []core.Schedule{
		{Kind: core.KindStatic}, {Kind: core.KindDynamic}, {Kind: core.KindGuided},
		{Kind: core.KindAIDStatic}, {Kind: core.KindAIDHybrid}, {Kind: core.KindAIDDynamic},
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

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		in   string
		want core.Schedule
	}{
		{"static", core.Schedule{Kind: core.KindStatic}},
		{"static,8", core.Schedule{Kind: core.KindStaticChunked, Chunk: 8}},
		{"dynamic", core.Schedule{Kind: core.KindDynamic}},
		{"dynamic,4", core.Schedule{Kind: core.KindDynamic, Chunk: 4}},
		{"guided,2", core.Schedule{Kind: core.KindGuided, Chunk: 2}},
		{"AID-STATIC", core.Schedule{Kind: core.KindAIDStatic}},
		{"aid-static,2", core.Schedule{Kind: core.KindAIDStatic, Chunk: 2}},
		{"aid-hybrid,60", core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.6}},
		{"aid-dynamic,1,5", core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}},
		{" dynamic , 3 ", core.Schedule{Kind: core.KindDynamic, Chunk: 3}},
	}
	for _, c := range cases {
		got, err := core.ParseSchedule(c.in)
		if err != nil {
			t.Errorf("core.ParseSchedule(%q) error: %v", c.in, err)
			continue
		}
		if got.Kind != c.want.Kind || got.Chunk != c.want.Chunk ||
			got.Major != c.want.Major || got.Pct != c.want.Pct {
			t.Errorf("core.ParseSchedule(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	bad := []string{
		"", "nonsense", "dynamic,0", "dynamic,-3", "dynamic,x", "dynamic,1,2",
		"aid-hybrid,0", "aid-hybrid,150", "aid-dynamic,1,2,3", "static,1,2",
	}
	for _, in := range bad {
		if _, err := core.ParseSchedule(in); err == nil {
			t.Errorf("core.ParseSchedule(%q) accepted", in)
		}
	}
}

func TestParseScheduleAIDAuto(t *testing.T) {
	s, err := core.ParseSchedule("aid-auto,2,16")
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != core.KindAIDAuto || s.Chunk != 2 || s.Major != 16 {
		t.Errorf("core.ParseSchedule(aid-auto,2,16) = %+v", s)
	}
	if _, err := core.ParseSchedule("aid-auto,1,2,3"); err == nil {
		t.Error("extra aid-auto parameters accepted")
	}
	if got := (core.Schedule{Kind: core.KindAIDAuto}).String(); got != "AID-auto/1,5" {
		t.Errorf("String() = %q", got)
	}
	if core.KindAIDAuto.String() != "aid-auto" {
		t.Errorf("Kind.String() = %q", core.KindAIDAuto)
	}
}

// TestParseScheduleReweight covers the ",rw" GOOMP_SCHEDULE extension:
// accepted on the online-SF AID methods (any case, any parameter count),
// rejected everywhere else, and round-tripped by Canonical.
func TestParseScheduleReweight(t *testing.T) {
	good := map[string]core.Schedule{
		"aid-static,rw":      {Kind: core.KindAIDStatic, Reweight: true},
		"aid-static,2,rw":    {Kind: core.KindAIDStatic, Chunk: 2, Reweight: true},
		"aid-hybrid,80,rw":   {Kind: core.KindAIDHybrid, Pct: 0.8, Reweight: true},
		"aid-dynamic,1,5,rw": {Kind: core.KindAIDDynamic, Chunk: 1, Major: 5, Reweight: true},
		"AID-DYNAMIC,1,5,RW": {Kind: core.KindAIDDynamic, Chunk: 1, Major: 5, Reweight: true},
	}
	for in, want := range good {
		got, err := core.ParseSchedule(in)
		if err != nil {
			t.Errorf("core.ParseSchedule(%q): %v", in, err)
			continue
		}
		if got.Kind != want.Kind || got.Chunk != want.Chunk ||
			got.Major != want.Major || got.Pct != want.Pct || !got.Reweight {
			t.Errorf("core.ParseSchedule(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, in := range []string{
		"static,rw", "dynamic,4,rw", "guided,rw", "work-steal,4,rw",
		"aid-auto,2,8,rw", "rw",
	} {
		if _, err := core.ParseSchedule(in); err == nil {
			t.Errorf("core.ParseSchedule(%q) accepted", in)
		}
	}
	for _, in := range []string{"aid-static,rw", "aid-hybrid,70,rw", "aid-dynamic,2,10,rw"} {
		s, err := core.ParseSchedule(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		c := s.Canonical()
		s2, err := core.ParseSchedule(c)
		if err != nil {
			t.Fatalf("%s -> Canonical %q does not parse: %v", in, c, err)
		}
		if !s2.Reweight {
			t.Errorf("%s: Canonical %q dropped the rw flag", in, c)
		}
		if c2 := s2.Canonical(); c2 != c {
			t.Errorf("%s: Canonical not a fixed point: %q -> %q", in, c, c2)
		}
	}
	if got := (core.Schedule{Kind: core.KindAIDDynamic, Reweight: true}).String(); got != "AID-dynamic/1,5+rw" {
		t.Errorf("String() = %q, want AID-dynamic/1,5+rw", got)
	}
}

// TestScheduleCanonicalRoundTrip: core.ParseSchedule(s.Canonical()) must
// select the same schedule — the property run records rely on to re-run a
// loop under its recorded configuration. A schedule whose fields the syntax
// cannot write exactly has no canonical form ("") rather than a text that
// rebuilds a different scheduler or none.
func TestScheduleCanonicalRoundTrip(t *testing.T) {
	roundTrip := func(label string, s core.Schedule, c string) {
		t.Helper()
		s2, err := core.ParseSchedule(c)
		if err != nil {
			t.Errorf("%s -> Canonical %q does not parse: %v", label, c, err)
			return
		}
		d, d2 := s.WithDefaults(), s2.WithDefaults()
		if d.Kind != d2.Kind || d.Chunk != d2.Chunk || d.Major != d2.Major || d.Pct != d2.Pct || d.Reweight != d2.Reweight {
			t.Errorf("%s -> %q round-trips to %+v, want %+v", label, c, d2, d)
		}
		if c2 := s2.Canonical(); c2 != c {
			t.Errorf("%s: Canonical not a fixed point: %q -> %q", label, c, c2)
		}
	}
	for _, txt := range []string{
		"static", "static,8", "dynamic,1", "dynamic,16", "guided,2",
		"aid-static", "aid-static,2", "aid-hybrid,70", "aid-hybrid,80,4",
		"aid-dynamic,2,10", "aid-auto,16,64", "work-steal,4",
	} {
		s, err := core.ParseSchedule(txt)
		if err != nil {
			t.Fatalf("%s: %v", txt, err)
		}
		roundTrip(txt, s, s.Canonical())
	}
	for _, c := range []struct {
		s    core.Schedule
		want string
	}{
		{core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.29}, "aid-hybrid,29"},
		{core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.07, Chunk: 3, Reweight: true}, "aid-hybrid,7,3,rw"},
		{core.Schedule{Kind: core.KindAIDAuto, Chunk: 2, Major: 16, Pct: 0.8}, "aid-auto,2,16"},
		{core.Schedule{Kind: core.KindAIDDynamic, Reweight: true}, "aid-dynamic,1,5,rw"},
		// Fields the syntax cannot write: the AID-auto share, an AID-hybrid
		// share that is not a whole percentage in (0,100], the offline-SF
		// table, rw on a kind without it, a chunk or Major below 1.
		{core.Schedule{Kind: core.KindAIDAuto, Pct: 0.6}, ""},
		{core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.805}, ""},
		{core.Schedule{Kind: core.KindAIDHybrid, Pct: 0.004}, ""},
		{core.Schedule{Kind: core.KindAIDStatic, OfflineSF: []float64{3, 1}}, ""},
		{core.Schedule{Kind: core.KindDynamic, Reweight: true}, ""},
		{core.Schedule{Kind: core.KindAIDAuto, Reweight: true}, ""},
		{core.Schedule{Kind: core.KindDynamic, Chunk: -3}, ""},
		{core.Schedule{Kind: core.KindAIDDynamic, Major: -1}, ""},
	} {
		label := fmt.Sprintf("%#v", c.s)
		got := c.s.Canonical()
		if got != c.want {
			t.Errorf("%s: Canonical = %q, want %q", label, got, c.want)
		}
		if got != "" {
			roundTrip(label, c.s, got)
		}
	}
}

// TestFactoryProducesRightSchedulers: every kind builds the scheduler it
// names, Kind.String() being that scheduler's Name().
func TestFactoryProducesRightSchedulers(t *testing.T) {
	info := core.LoopInfo{NI: 100, NThreads: 4, NumTypes: 2, TypeOf: func(tid int) int { return tid % 2 }}
	seen := map[core.Kind]bool{}
	for _, sched := range []core.Schedule{
		{Kind: core.KindStatic},
		{Kind: core.KindStaticChunked, Chunk: 2},
		{Kind: core.KindDynamic},
		{Kind: core.KindGuided},
		{Kind: core.KindAIDStatic},
		{Kind: core.KindAIDStatic, OfflineSF: []float64{3, 1}},
		{Kind: core.KindAIDHybrid},
		{Kind: core.KindAIDDynamic},
		{Kind: core.KindAIDAuto},
		{Kind: core.KindWorkSteal, Chunk: 4},
	} {
		seen[sched.Kind] = true
		s, err := sched.Factory()(info)
		if err != nil {
			t.Errorf("factory for %v: %v", sched, err)
			continue
		}
		if s.Name() != sched.Kind.String() {
			t.Errorf("factory for %v built %q, want %q", sched, s.Name(), sched.Kind)
		}
	}
	for k := core.KindStatic; k <= core.KindWorkSteal; k++ {
		if !seen[k] {
			t.Errorf("no case builds %v", k)
		}
	}
	if _, err := (core.Schedule{Kind: core.Kind(99)}).Factory()(info); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestFactoryAIDAuto(t *testing.T) {
	info := core.LoopInfo{NI: 100, NThreads: 4, NumTypes: 2, TypeOf: func(tid int) int { return tid % 2 }}
	s, err := (core.Schedule{Kind: core.KindAIDAuto}).Factory()(info)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "aid-auto" {
		t.Errorf("factory built %q", s.Name())
	}
}

// TestFactoryReweight: the factory must apply SetReweight to schedulers that
// support it and refuse Reweight on kinds that do not (the struct field is
// reachable without going through ParseSchedule's validation).
func TestFactoryReweight(t *testing.T) {
	info := core.LoopInfo{NI: 100, NThreads: 4, NumTypes: 2, TypeOf: func(tid int) int { return tid % 2 }}
	for _, k := range []core.Kind{core.KindAIDStatic, core.KindAIDHybrid, core.KindAIDDynamic} {
		if _, err := (core.Schedule{Kind: k, Reweight: true}).Factory()(info); err != nil {
			t.Errorf("factory for %v+rw: %v", k, err)
		}
	}
	if _, err := (core.Schedule{Kind: core.KindDynamic, Reweight: true}).Factory()(info); err == nil {
		t.Error("factory accepted Reweight on dynamic")
	}
}
