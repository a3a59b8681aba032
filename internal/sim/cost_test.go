package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/trace"
)

// costFrom costs 50 000 units an iteration below at and bad from at on.
type costFrom struct {
	at  int64
	bad float64
}

func (c costFrom) Units(i int64) float64 {
	if i >= c.at {
		return c.bad
	}
	return 50000
}

func (c costFrom) RangeUnits(lo, hi int64) float64 {
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += c.Units(i)
	}
	return sum
}

// TestRunRefusesBadChunkCost: a chunk whose cost is negative, NaN or
// infinite, or whose time would run its thread's clock past the int64 range,
// fails the call, in a team and on a fleet, recorded on a timeline or not,
// with an error that names the loop and the chunk's iterations. The call
// hands its workspace back, and the next valid run is the run a first call
// gives.
func TestRunRefusesBadChunkCost(t *testing.T) {
	pl := amp.PlatformA()
	cfg := baseCfg(pl, 8, amp.BindBS, dynamicFactory)
	want, err := RunLoop(cfg, epLoop(512), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cost  CostModel
		chunk string // the refused chunk's iterations under dynamic,1
	}{
		{"negative", UniformCost{PerIter: -100000}, "[0,1)"},
		{"NaN", UniformCost{PerIter: math.NaN()}, "[0,1)"},
		{"+Inf", UniformCost{PerIter: math.Inf(1)}, "[0,1)"},
		{"time past int64", UniformCost{PerIter: 1e300}, "[0,1)"},
		{"time past int64, linear", LinearCost{Base: 1e308, Slope: 1e308}, "[0,1)"},
		{"negative from 300", costFrom{at: 300, bad: -1e6}, "[300,301)"},
		{"NaN from 300", costFrom{at: 300, bad: math.NaN()}, "[300,301)"},
	} {
		bad := epLoop(512)
		bad.Cost = c.cost
		check := func(how string, err error) {
			t.Helper()
			if err == nil {
				t.Errorf("%s, %s: accepted", c.name, how)
			} else if msg := err.Error(); !strings.Contains(msg, `loop "ep-main": iterations `+c.chunk) {
				t.Errorf("%s, %s: error %q names no loop %q and chunk %s", c.name, how, msg, "ep-main", c.chunk)
			}
		}
		for _, rec := range []*trace.Recorder{nil, trace.NewTimedRecorder()} {
			how := "untimed"
			if rec != nil {
				how = "timed"
			}
			team := cfg
			team.Recorder = rec
			_, err := RunLoop(team, bad, 0)
			check("team "+how, err)
		}
		fleet := cfg
		fleet.Recorder = trace.NewRecorder()
		_, err := RunLoops(fleet, []LoopSpec{uniformSpec("good", 512, 1), bad}, fair.NewWeightedRoundRobin(0), 0)
		check("fleet", err)
		_, err = RunProgram(cfg, Program{Name: "p", Phases: []Phase{{Loop: &bad, Reps: 3}}})
		check("program", err)

		got, err := RunLoop(cfg, epLoop(512), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.clone(), want.clone()) {
			t.Errorf("%s: a valid run after the refused ones differs from the first", c.name)
		}
	}
}

// TestRunRefusesClockOverflow: a platform whose runtime-call overhead would
// run a thread's clock past the int64 range, and a serial phase whose time
// would run the program's clock past it, infinite work included, fail the
// call with an error instead of wrapping the clock negative.
func TestRunRefusesClockOverflow(t *testing.T) {
	a := amp.PlatformA()
	for _, c := range []struct {
		name  string
		set   func(*amp.Overheads)
		start int64
	}{
		{"locality penalty", func(ov *amp.Overheads) { ov.LocalityPenaltyNs = 1e60 }, 0},
		{"pool access", func(ov *amp.Overheads) { ov.PoolAccessNs = 1e60 }, 0},
		{"timestamp from 2^62", func(ov *amp.Overheads) { ov.TimestampNs = 1 << 62 }, 1 << 62},
	} {
		ov := a.Overhead
		c.set(&ov)
		pl, err := amp.New("huge overhead", a.Clusters, ov)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseCfg(pl, 8, amp.BindBS, aidStaticFactory)
		check := func(how string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "past the end of the virtual clock") {
				t.Errorf("%s, %s: err = %v, want the end of the virtual clock", c.name, how, err)
			}
		}
		for _, rec := range []*trace.Recorder{nil, trace.NewTimedRecorder()} {
			team := cfg
			team.Recorder = rec
			_, err := RunLoop(team, epLoop(512), c.start)
			check("team", err)
		}
		_, err = RunLoops(cfg, []LoopSpec{uniformSpec("good", 512, 1), epLoop(512)}, fair.NewWeightedRoundRobin(0), c.start)
		check("fleet", err)
	}
	cfg := baseCfg(a, 8, amp.BindBS, dynamicFactory)
	loop := epLoop(64)
	// The second says 0.6 of the clock's range: the first of its phases fits.
	speed := a.Speed(a.CoreOf(0, 8, amp.BindBS), amp.Profile{}, 1)
	for _, units := range []float64{math.Inf(1), 1e300, 0.6 * math.MaxInt64 * speed} {
		prog := Program{Name: "p", Phases: []Phase{{SerialUnits: units}, {Loop: &loop}, {SerialUnits: units}}}
		if _, err := RunProgram(cfg, prog); err == nil || !strings.Contains(err.Error(), "past the end of the virtual clock") {
			t.Errorf("a serial phase of %g units: err = %v, want the end of the virtual clock", units, err)
		}
	}
}

// TestRunProgramRefusesRepOverflow: a loop phase whose repetitions, accounted
// from its first execution, would run the clock or the pool-access count past
// int64 fails the call with an error naming the program, and the most
// repetitions that fit are still accounted.
func TestRunProgramRefusesRepOverflow(t *testing.T) {
	a := amp.PlatformA()
	cfg := baseCfg(a, 8, amp.BindBS, core.Schedule{Kind: core.KindDynamic, Chunk: 1}.Factory())
	loop := epLoop(640)
	one, err := RunProgram(cfg, Program{Name: "one", Phases: []Phase{{Loop: &loop}}})
	if err != nil {
		t.Fatal(err)
	}
	fit := int(math.MaxInt64 / one.TotalNs)
	for _, c := range []struct {
		reps int
		ok   bool
	}{{1 << 50, false}, {fit + 1, false}, {fit, true}} {
		prog := Program{Name: "reps", Phases: []Phase{{Loop: &loop, Reps: c.reps}}}
		res, err := RunProgram(cfg, prog)
		switch {
		case c.ok && (err != nil || res.TotalNs != int64(c.reps)*one.TotalNs):
			t.Errorf("%d repetitions: TotalNs %d, err %v; want %d", c.reps, res.TotalNs, err, int64(c.reps)*one.TotalNs)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), `program "reps"`) ||
			!strings.Contains(err.Error(), "past the end of the virtual clock")):
			t.Errorf("%d repetitions: TotalNs %d, err = %v, want program \"reps\" past the end of the virtual clock",
				c.reps, res.TotalNs, err)
		}
	}
	// With no overheads and free iterations an execution takes no time, so
	// only its pool accesses can overflow.
	free, err := amp.New("free", a.Clusters, amp.Overheads{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platform = free
	idle := LoopSpec{Name: "idle", NI: 64, Cost: UniformCost{}}
	prog := Program{Name: "idle", Phases: []Phase{{Loop: &idle, Reps: math.MaxInt64}}}
	if res, err := RunProgram(cfg, prog); err == nil || !strings.Contains(err.Error(), `program "idle"`) ||
		!strings.Contains(err.Error(), "pool accesses") {
		t.Errorf("%d free repetitions: %+v, err = %v, want program \"idle\" and its pool accesses", math.MaxInt64, res, err)
	}
}
