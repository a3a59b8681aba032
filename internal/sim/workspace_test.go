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

// reuseFactories are the schedules the reuse tests run under: the four the
// allocation gate names plus the ones with the most state to re-arm.
var reuseFactories = []struct {
	name    string
	factory SchedulerFactory
}{
	{"static", staticFactory},
	{"dynamic,1", dynamicFactory},
	{"aid-static,1", aidStaticFactory},
	{"aid-dynamic,1,5", aidDynamicFactory},
	{"aid-hybrid,80", func(info core.LoopInfo) (core.Scheduler, error) { return core.NewAIDHybrid(info, 1, 0.8) }},
	{"aid-static-offline", func(info core.LoopInfo) (core.Scheduler, error) {
		sf := make([]float64, info.NumTypes)
		for i := range sf {
			sf[i] = float64(info.NumTypes - i)
		}
		return core.NewAIDStaticOffline(info, 1, sf)
	}},
	{"guided", func(info core.LoopInfo) (core.Scheduler, error) { return core.NewGuided(info, 1) }},
}

// clone copies a result as deeply as a caller can reach into it.
func (r LoopResult) clone() LoopResult {
	c := r
	c.Iters = append([]int64(nil), r.Iters...)
	c.Finish = append([]int64(nil), r.Finish...)
	c.SFEstimate = append([]float64(nil), r.SFEstimate...)
	c.ClusterEnergyJ = append([]float64(nil), r.ClusterEnergyJ...)
	return c
}

// TestWorkspaceReuse drives one workspace through a sequence of calls the
// way RunProgram does, with new results each time: call k's result equals
// what RunLoop returns for the same loop (a recycled scheduler and workspace
// change nothing), and it is still that after call k+1 has recycled both — no
// slice of it, SFEstimate and Iters included, aliases engine or
// scheduler state.
func TestWorkspaceReuse(t *testing.T) {
	pl := amp.PlatformA()
	loops := []LoopSpec{epLoop(4096), migrationLoop(), epLoop(640), epLoop(0), epLoop(4096)}
	for _, f := range reuseFactories {
		cfg := baseCfg(pl, pl.NumCores(), amp.BindBS, f.factory)
		cfg.Migrations = []Migration{{AtNs: 40_000, Tid: 0, ToCPU: 0}}
		ws, err := newWorkspace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var prev, prevCopy *LoopResult
		start := int64(0)
		for k, spec := range loops {
			var res [1]LoopResult
			if err := ws.run(res[:], []LoopSpec{spec}, nil, start); err != nil {
				t.Fatalf("%s: call %d: %v", f.name, k, err)
			}
			want, err := RunLoop(cfg, spec, start)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res[0].clone(), want.clone()) {
				t.Errorf("%s: call %d on a reused workspace:\n got %+v\nwant %+v", f.name, k, res[0], want)
			}
			if prev != nil && !reflect.DeepEqual(prev.clone(), *prevCopy) {
				t.Errorf("%s: call %d changed the result of call %d:\n now %+v\n was %+v", f.name, k, k-1, *prev, *prevCopy)
			}
			c := res[0].clone()
			prev, prevCopy = &res[0], &c
			start = res[0].End
		}
	}
}

// TestFleetWorkspaceReuse is the same on a fleet: two RunLoops-shaped calls on
// one workspace, schedulers re-armed in between.
func TestFleetWorkspaceReuse(t *testing.T) {
	cfg := multiCfg(4)
	cfg.Factory = aidDynamicFactory
	specs := []LoopSpec{uniformSpec("a", 3000, 2), uniformSpec("b", 1200, 1), uniformSpec("c", 0, 1)}
	specs[1].Arrive = 20_000
	ws, err := newWorkspace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunLoops(cfg, specs, fair.NewWeightedRoundRobin(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		got := make([]LoopResult, len(specs))
		if err := ws.run(got, specs, fair.NewWeightedRoundRobin(0), 0); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].clone(), want[i].clone()) {
				t.Errorf("call %d, loop %d:\n got %+v\nwant %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestRunProgramMatchesRunLoops: RunProgram, which keeps one scheduler per
// phase, one workspace and one result, and simulates only the first execution
// of a phase when nothing can tell the others from it, adds up exactly what a
// caller sequencing RunLoop calls by hand gets. Every program runs twice: bare,
// and with a migration that comes due halfway through the second execution of
// the first phase, so that the first three executions all differ (none, mid-run,
// at the fork) and accounting any of them from another shows.
func TestRunProgramMatchesRunLoops(t *testing.T) {
	pl := amp.PlatformTri()
	a, b := epLoop(3000), migrationLoop()
	prog := Program{Name: "p", Phases: []Phase{
		{Loop: &a, Reps: 3},
		{SerialUnits: 1e6, SerialProfile: amp.Profile{ILP: 0.5}},
		{Loop: &b, Reps: 2},
		{Loop: &a},
	}}
	for _, f := range reuseFactories {
		for _, migrate := range []bool{false, true} {
			cfg := baseCfg(pl, pl.NumCores(), amp.BindBS, f.factory)
			if migrate {
				first, err := RunLoop(cfg, a, 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Migrations = []Migration{{AtNs: first.End * 3 / 2, Tid: 0, ToCPU: 0}}
			}
			got, err := RunProgram(cfg, prog)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			var want ProgramResult
			cursor := int64(0)
			for _, ph := range prog.Phases {
				if ph.Loop == nil {
					dur := int64(ph.SerialUnits / pl.Speed(pl.CoreOf(0, cfg.NThreads, cfg.Binding), ph.SerialProfile, 1))
					cursor, want.SerialNs = cursor+dur, want.SerialNs+dur
					continue
				}
				for r := 0; r < max(ph.Reps, 1); r++ {
					lr, err := RunLoop(cfg, *ph.Loop, cursor)
					if err != nil {
						t.Fatal(err)
					}
					want.LoopNs += lr.End - lr.Start
					want.SchedNs += lr.SchedNs
					want.PoolAccesses += lr.PoolAccesses
					cursor = lr.End
				}
			}
			want.TotalNs = cursor
			if got != want {
				t.Errorf("%s, migration %v: RunProgram = %+v, RunLoop by hand = %+v", f.name, migrate, got, want)
			}
		}
	}
}

// TestRunProgramObserved: what is attached to a Config sees every execution
// of a phase, so RunProgram simulates every one. A Recorder, timed or not,
// holds one run: a program with a second execution is refused with
// BeginRun's error, not recorded short. A program of one execution records
// what RunLoop records of that execution started where the serial phase
// before it ended, and returns what it returns unrecorded.
func TestRunProgramObserved(t *testing.T) {
	pl := amp.PlatformA()
	a, b := epLoop(700), migrationLoop()
	serial := Phase{SerialUnits: 1e6, SerialProfile: amp.Profile{ILP: 0.5}}
	prog := Program{Name: "p", Phases: []Phase{{Loop: &a, Reps: 3}, serial, {Loop: &b, Reps: 2}}}
	once := Program{Name: "once", Phases: []Phase{serial, {Loop: &a, Reps: 1}, serial}}
	for _, f := range reuseFactories {
		cfg := baseCfg(pl, pl.NumCores(), amp.BindBS, f.factory)
		bare, err := RunProgram(cfg, once)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for _, newRecorder := range []func() *trace.Recorder{trace.NewRecorder, trace.NewTimedRecorder} {
			cfg.Recorder = newRecorder()
			if _, err := RunProgram(cfg, prog); err == nil || !strings.Contains(err.Error(), "recorder already holds a run") {
				t.Errorf("%s: a program of 5 executions under one Recorder: error %v, want BeginRun's refusal", f.name, err)
			}
			cfg.Recorder = newRecorder()
			got, err := RunProgram(cfg, once)
			if err != nil {
				t.Fatalf("%s: a program of one execution under a Recorder: %v", f.name, err)
			}
			if got != bare {
				t.Errorf("%s: a Recorder changed the result: %+v with, %+v without", f.name, got, bare)
			}
			loop := cfg
			loop.Recorder = newRecorder()
			if _, err := RunLoop(loop, a, bare.SerialNs/2); err != nil {
				t.Fatal(err)
			}
			if rec, want := cfg.Recorder.Record(), loop.Recorder.Record(); !reflect.DeepEqual(rec, want) {
				t.Errorf("%s (timed %v): the program's record (start %d, %d events, %d intervals) is not RunLoop's (start %d, %d events, %d intervals)",
					f.name, cfg.Recorder.Timed(), rec.StartNs, len(rec.Events), len(rec.Timeline), want.StartNs, len(want.Events), len(want.Timeline))
			}
		}
	}
}

// countingFactory counts the schedulers a program run asks for.
func countingFactory(f SchedulerFactory, n *int) SchedulerFactory {
	return func(info core.LoopInfo) (core.Scheduler, error) { *n++; return f(info) }
}

// foreign hides a scheduler's Reset, as a scheduler from another package (a
// replay script, a probe) has none.
type foreign struct{ core.Scheduler }

// foreignAIDStatic builds AID-static without its Reset.
func foreignAIDStatic(info core.LoopInfo) (core.Scheduler, error) {
	s, err := core.NewAIDStatic(info, 1)
	return foreign{s}, err
}

// buildsOfProgram runs a program of two loop phases, of five and four
// repetitions, under cfg and returns how many schedulers the factory that
// count counts was asked for.
func buildsOfProgram(t *testing.T, cfg Config, count *int) int {
	t.Helper()
	a, b := epLoop(512), epLoop(256)
	*count = 0
	if _, err := RunProgram(cfg, Program{Name: "p", Phases: []Phase{{Loop: &a, Reps: 5}, {Loop: &b, Reps: 4}}}); err != nil {
		t.Fatal(err)
	}
	return *count
}

// TestRunProgramBuildsOncePerPhase: under FactoryNamed, which may configure
// each loop's scheduler differently, a phase's repetitions share one scheduler
// when it can be re-armed, and get one each from the factory when it cannot.
func TestRunProgramBuildsOncePerPhase(t *testing.T) {
	built := 0
	cfg := baseCfg(amp.PlatformA(), 8, amp.BindBS, nil)
	for _, c := range []struct {
		factory SchedulerFactory
		want    int
		what    string
	}{
		{aidStaticFactory, 2, "two phases of re-armable schedulers"},
		{foreignAIDStatic, 9, "nine repetitions of a scheduler without Reset"},
	} {
		f := countingFactory(c.factory, &built)
		cfg.FactoryNamed = func(_ string, info core.LoopInfo) (core.Scheduler, error) { return f(info) }
		if got := buildsOfProgram(t, cfg, &built); got != c.want {
			t.Errorf("FactoryNamed called %d times for %s, want %d", got, c.what, c.want)
		}
	}
}

// TestRunProgramBuildsOncePerProgram: under Factory, which cannot tell one
// loop from another, the whole program shares one scheduler when it can be
// re-armed, and every execution gets one from the factory when it cannot.
func TestRunProgramBuildsOncePerProgram(t *testing.T) {
	built := 0
	for _, c := range []struct {
		factory SchedulerFactory
		want    int
		what    string
	}{
		{aidStaticFactory, 1, "a program of re-armable schedulers"},
		{foreignAIDStatic, 9, "nine executions of a scheduler without Reset"},
	} {
		cfg := baseCfg(amp.PlatformA(), 8, amp.BindBS, countingFactory(c.factory, &built))
		if got := buildsOfProgram(t, cfg, &built); got != c.want {
			t.Errorf("Factory called %d times for %s, want %d", got, c.what, c.want)
		}
	}
}

// TestRunProgramAllocs is the simulator's allocation gate: what RunProgram
// allocates per program and per phase is paid once. A further repetition that
// is accounted from the first costs nothing, under every schedule. One that is
// simulated — here because the Config carries a migration, which no clock of
// the run ever reaches and which allocates nothing itself — costs a small
// constant number of allocations: none under the conventional schedules, and
// under the AID ones only the copy of the final SF estimate an execution hands
// to its result. Without a Recorder no scheduler has a phase observer, so no
// SF table published mid-run is copied.
func TestRunProgramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pl := amp.PlatformA()
	loop := epLoop(64)
	for _, c := range []struct {
		name    string
		factory SchedulerFactory
		perRep  float64 // per simulated repetition
	}{
		{"static", staticFactory, 0},
		{"dynamic,1", dynamicFactory, 0},
		{"aid-static,1", aidStaticFactory, 1},
		{"aid-dynamic,1,5", aidDynamicFactory, 1},
	} {
		for _, simulated := range []bool{false, true} {
			cfg := baseCfg(pl, pl.NumCores(), amp.BindBS, c.factory)
			perRep := 0.0
			if simulated {
				cfg.Migrations = []Migration{{AtNs: math.MaxInt64, Tid: 0, ToCPU: 0}}
				perRep = c.perRep
			}
			allocs := func(reps int) float64 {
				prog := Program{Name: "p", Phases: []Phase{{Loop: &loop, Reps: reps}}}
				return testing.AllocsPerRun(10, func() {
					if _, err := RunProgram(cfg, prog); err != nil {
						t.Fatal(err)
					}
				})
			}
			few, many := allocs(2), allocs(102)
			if per := (many - few) / 100; per > perRep {
				t.Errorf("%s, simulated %v: %.2f allocations per additional repetition (%.0f for 2, %.0f for 102), want at most %.0f",
					c.name, simulated, per, few, many, perRep)
			} else {
				t.Logf("%s, simulated %v: %.2f allocations per additional repetition, %.0f for a program of 2", c.name, simulated, per, few)
			}
		}
	}
}

// TestTypeDistIsShared: amp.Platform hands every caller the one matrix it
// built, so nobody may write to it. Everything that receives it — the engine's
// locality and tier lookups, core.LoopInfo, pool.SetTopology behind every
// pool-backed scheduler, a re-partitioning pool, the recorder — runs here,
// across every zoo platform, and the matrix is compared with a copy taken
// before.
func TestTypeDistIsShared(t *testing.T) {
	for _, name := range amp.Names() {
		pl, _ := amp.Lookup(name)
		dist := pl.TypeDist()
		if len(dist) != len(pl.Clusters) || &dist[0][0] != &pl.TypeDist()[0][0] {
			t.Fatalf("%s: TypeDist is not one cached %dx%d matrix", name, len(pl.Clusters), len(pl.Clusters))
		}
		before := make([][]int, len(dist))
		for i := range dist {
			before[i] = append([]int(nil), dist[i]...)
			for j := range dist[i] {
				if dist[i][j] != pl.ClusterDist(i, j) {
					t.Fatalf("%s: TypeDist[%d][%d] = %d, ClusterDist = %d", name, i, j, dist[i][j], pl.ClusterDist(i, j))
				}
			}
		}
		a := migrationLoop()
		for _, f := range reuseFactories {
			cfg := baseCfg(pl, pl.NumCores(), amp.BindBS, f.factory)
			cfg.Migrations = []Migration{{AtNs: 30_000, Tid: 0, ToCPU: 0}}
			cfg.Metrics = true
			if _, err := RunProgram(cfg, Program{Name: "p", Phases: []Phase{{Loop: &a, Reps: 2}}}); err != nil {
				t.Fatalf("%s/%s: %v", name, f.name, err)
			}
			cfg.Recorder = trace.NewTimedRecorder()
			if _, err := RunLoops(cfg, []LoopSpec{a, epLoop(900)}, fair.NewWeightedRoundRobin(0), 0); err != nil {
				t.Fatalf("%s/%s: %v", name, f.name, err)
			}
		}
		if !reflect.DeepEqual(pl.TypeDist(), before) {
			t.Errorf("%s: TypeDist changed under its readers:\n now %v\n was %v", name, pl.TypeDist(), before)
		}
	}
}
