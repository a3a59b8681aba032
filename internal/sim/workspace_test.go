package sim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
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
					cursor += serialNs(cfg, ph)
					continue
				}
				for r := 0; r < max(ph.Reps, 1); r++ {
					lr, err := RunLoop(cfg, *ph.Loop, cursor)
					if err != nil {
						t.Fatal(err)
					}
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
			if _, err := RunLoop(loop, a, serialNs(cfg, serial)); err != nil {
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

// platform1B1S is Platform A's two core types with one core each: a fleet of
// two workers, one big and one small.
func platform1B1S(t *testing.T) *amp.Platform {
	t.Helper()
	a := amp.PlatformA()
	clusters := append([]amp.Cluster(nil), a.Clusters...)
	for i := range clusters {
		clusters[i].NumCores = 1
	}
	pl, err := amp.New("1B+1S", clusters, a.Overhead)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// poolCall is one engine call of the pool tests: a team (RunLoop of
// specs[0]), a fleet (RunLoops of specs) or a program, recorded by a timed
// Recorder or not.
type poolCall struct {
	name     string
	cfg      Config
	specs    []LoopSpec
	fleet    bool
	prog     *Program
	recorded bool
}

// poolOutcome is what a poolCall returns: its results, deep-copied, or its
// program result, and its record's bytes.
type poolOutcome struct {
	results []LoopResult
	prog    ProgramResult
	record  []byte
}

// do makes the call, through the entry point when fresh is false, and on a
// workspace of its own that it never releases when fresh is true.
func (c poolCall) do(fresh bool) (poolOutcome, error) {
	cfg := c.cfg
	if c.recorded {
		cfg.Recorder = trace.NewTimedRecorder()
	}
	var out poolOutcome
	var err error
	var ws *workspace
	if fresh {
		ws = new(workspace)
		ws.begin(cfg)
	}
	switch {
	case c.prog != nil && fresh:
		out.prog, err = ws.runProgram(*c.prog)
	case c.prog != nil:
		out.prog, err = RunProgram(cfg, *c.prog)
	case fresh:
		out.results = make([]LoopResult, len(c.specs))
		var policy fair.Policy
		if c.fleet {
			policy = fair.NewWeightedRoundRobin(0)
		}
		err = ws.run(out.results, c.specs, policy, 1000)
	case c.fleet:
		out.results, err = RunLoops(cfg, c.specs, fair.NewWeightedRoundRobin(0), 1000)
	default:
		var r LoopResult
		r, err = RunLoop(cfg, c.specs[0], 1000)
		out.results = []LoopResult{r}
	}
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.name, err)
	}
	for i := range out.results {
		out.results[i] = out.results[i].clone()
	}
	if c.recorded {
		var b bytes.Buffer
		if err := trace.EncodeJSONL(&b, cfg.Recorder.Record()); err != nil {
			return out, err
		}
		out.record = b.Bytes()
	}
	return out, nil
}

// poolCalls covers Platform A's eight workers and 1B+1S's two, team, fleet
// and program, recorded and not, with and without Metrics, under schedulers
// with phase observers and without, and a burst whose recorded events fill
// many blocks. Some of their schedulers come from core.Schedule.Factory, so
// they go back to core's spares with the workspace, and later calls on any
// goroutine re-arm them.
func poolCalls(t *testing.T) []poolCall {
	pa, ps := amp.PlatformA(), platform1B1S(t)
	hybrid := func(info core.LoopInfo) (core.Scheduler, error) { return core.NewAIDHybrid(info, 1, 0.8) }
	named := func(_ string, info core.LoopInfo) (core.Scheduler, error) { return core.NewAIDStatic(info, 2) }
	keyedDynamic := core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}.Factory()
	keyedHybrid := core.Schedule{Kind: core.KindAIDHybrid}.Factory()
	keyedNamed := func(_ string, info core.LoopInfo) (core.Scheduler, error) { return keyedHybrid(info) }
	fleetSpecs := []LoopSpec{uniformSpec("a", 900, 2), uniformSpec("b", 400, 1), epLoop(300)}
	fleetSpecs[1].Arrive = 30_000
	// A burst of some 6 500 grants, whose recorded events grow in blocks
	// that go back to the trace package's pools when the record is taken.
	burst := []LoopSpec{uniformSpec("a", 3000, 2), uniformSpec("b", 2000, 1), epLoop(1500)}
	a, b := epLoop(1200), migrationLoop()
	prog := &Program{Name: "p", Phases: []Phase{
		{Loop: &a, Reps: 3},
		{SerialUnits: 1e6, SerialProfile: amp.Profile{ILP: 0.5}},
		{Loop: &b, Reps: 2},
	}}
	var calls []poolCall
	for _, recorded := range []bool{false, true} {
		metricsA := baseCfg(pa, 8, amp.BindBS, aidStaticFactory)
		metricsA.Metrics = true
		migrating := baseCfg(ps, 2, amp.BindSB, aidDynamicFactory)
		migrating.Migrations = []Migration{{AtNs: 20_000, Tid: 0, ToCPU: 1}}
		calls = append(calls,
			poolCall{name: "team A aid-static metrics", cfg: metricsA, specs: []LoopSpec{epLoop(2000)}, recorded: recorded},
			poolCall{name: "team 1B+1S dynamic", cfg: baseCfg(ps, 2, amp.BindBS, dynamicFactory), specs: []LoopSpec{epLoop(700)}, recorded: recorded},
			poolCall{name: "team 1B+1S aid-dynamic migrating", cfg: migrating, specs: []LoopSpec{migrationLoop()}, recorded: recorded},
			poolCall{name: "fleet A aid-hybrid", cfg: baseCfg(pa, 8, amp.BindBS, hybrid), specs: fleetSpecs, fleet: true, recorded: recorded},
			poolCall{name: "fleet 1B+1S aid-dynamic metrics", cfg: Config{Platform: ps, NThreads: 2, Binding: amp.BindBS, Factory: aidDynamicFactory, Metrics: true}, specs: fleetSpecs, fleet: true, recorded: recorded},
			poolCall{name: "fleet A dynamic,1 burst", cfg: baseCfg(pa, 8, amp.BindBS, dynamicFactory), specs: burst, fleet: true, recorded: recorded},
			poolCall{name: "fleet A spare aid-dynamic", cfg: baseCfg(pa, 8, amp.BindSB, keyedDynamic), specs: fleetSpecs, fleet: true, recorded: recorded},
		)
	}
	// A Recorder holds one run, so programs of several executions go
	// unrecorded.
	calls = append(calls,
		poolCall{name: "program A named", cfg: Config{Platform: pa, NThreads: 8, Binding: amp.BindBS, FactoryNamed: named}, prog: prog},
		poolCall{name: "program 1B+1S guided", cfg: baseCfg(ps, 2, amp.BindSB, reuseFactories[6].factory), prog: prog},
		poolCall{name: "program 1B+1S spare named", cfg: Config{Platform: ps, NThreads: 2, Binding: amp.BindBS, FactoryNamed: keyedNamed}, prog: prog},
	)
	return calls
}

// wantOutcomes runs every call on a fresh workspace.
func wantOutcomes(t *testing.T, calls []poolCall) []poolOutcome {
	t.Helper()
	want := make([]poolOutcome, len(calls))
	for i, c := range calls {
		var err error
		if want[i], err = c.do(true); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestPooledWorkspaceInterleaved: a call on a workspace an earlier call under
// another Config left in the pool returns what it returns on a fresh one, its
// results and its record byte for byte, however the calls interleave: on one
// goroutine in an order where every call follows a different one than
// before, and on four goroutines at once.
func TestPooledWorkspaceInterleaved(t *testing.T) {
	calls := poolCalls(t)
	want := wantOutcomes(t, calls)
	check := func(g, k, i int) {
		got, err := calls[i].do(false)
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("goroutine %d, call %d (%s): pooled workspace differs from a fresh one:\n got %+v\nwant %+v",
				g, k, calls[i].name, got, want[i])
		}
	}
	n := len(calls)
	for k := 0; k < 3*n; k++ {
		check(0, k, k*(k/n+1)%n)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*n; k++ {
				check(g, k, (k*g+g)%n)
			}
		}()
	}
	wg.Wait()
}

// TestPooledWorkspaceKeepsNoResult: a result a caller holds is its own. After
// a result of each kind is taken, every other call runs twice on the pool,
// and what the held results read, Finish, Iters and SFEstimate included, has
// not changed.
func TestPooledWorkspaceKeepsNoResult(t *testing.T) {
	calls := poolCalls(t)
	cfg := baseCfg(amp.PlatformA(), 8, amp.BindBS, aidStaticFactory)
	team, err := RunLoop(cfg, epLoop(3000), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Factory = aidDynamicFactory
	fleet, err := RunLoops(cfg, []LoopSpec{epLoop(900), uniformSpec("u", 500, 1)}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	held := append([]LoopResult{team}, fleet...)
	was := make([]LoopResult, len(held))
	for i := range held {
		if (i < 2 && held[i].SFEstimate == nil) || len(held[i].Finish) != 8 || len(held[i].Iters) != 8 {
			t.Fatalf("result %d holds no SF estimate, Finish or Iters: %+v", i, held[i])
		}
		was[i] = held[i].clone()
	}
	for k := 0; k < 2; k++ {
		for _, c := range calls {
			if _, err := c.do(false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range held {
		if !reflect.DeepEqual(held[i], was[i]) {
			t.Errorf("held result %d changed under later calls:\n now %+v\n was %+v", i, held[i], was[i])
		}
	}
}

// references lists what v reaches that a pooled workspace must not: every
// non-nil func, interface, map or channel (a factory, a scheduler, a phase
// observer, a policy, a ledger's timeline or events) and every pointer but the
// workspace's own fleet and ledgers (a Recorder, Metrics or their cells, a
// platform, a snapshot). Slices are read to their capacity.
func references(v reflect.Value, path string, seen map[uintptr]bool) []string {
	switch v.Kind() {
	case reflect.Func, reflect.Interface, reflect.Map, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			return []string{path + " (" + v.Type().String() + ")"}
		}
	case reflect.Pointer:
		if v.IsNil() {
			return nil
		}
		switch v.Type() {
		case reflect.TypeOf((*fair.Fleet)(nil)), reflect.TypeOf((*obs.Ledger)(nil)), reflect.TypeOf((*workspace)(nil)):
		default:
			return []string{path + " (" + v.Type().String() + ")"}
		}
		if seen[v.Pointer()] {
			return nil
		}
		seen[v.Pointer()] = true
		return references(v.Elem(), path, seen)
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, references(v.Field(i), path+"."+v.Type().Field(i).Name, seen)...)
		}
		return out
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, references(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)...)
		}
		return out
	}
	return nil
}

// pooled empties the pool and returns the workspaces it held. Only the
// calling P's are certain to be among them unless GOMAXPROCS is 1.
func pooled() []*workspace {
	var out []*workspace
	for {
		ws := workspaces.Get().(*workspace)
		if ws.fleet == nil { // a new one: the pool is empty
			return out
		}
		out = append(out, ws)
	}
}

// TestPooledWorkspaceForgetsConfig: a released workspace reaches no
// Recorder, Metrics, factory, scheduler, policy or platform of its call.
// Calls under every attachment there is run on one workspace, released after
// each, Platform A's eight workers before 1B+1S's two (so that lanes and
// ledgers past the second call's reach hold the first's leftovers), and then
// through the entry points, after which every workspace in the pool is read.
func TestPooledWorkspaceForgetsConfig(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	calls := poolCalls(t)
	ws := new(workspace)
	for _, c := range calls {
		if c.prog != nil {
			continue
		}
		cfg := c.cfg
		cfg.Metrics = true
		cfg.Recorder = trace.NewTimedRecorder()
		ws.begin(cfg)
		var policy fair.Policy
		if c.fleet {
			policy = fair.NewWeightedRoundRobin(0)
		}
		if err := ws.run(make([]LoopResult, len(c.specs)), c.specs, policy, 0); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ws.release()
		if refs := references(reflect.ValueOf(ws), "ws", map[uintptr]bool{}); len(refs) > 0 {
			t.Errorf("after %s, the released workspace holds %s", c.name, strings.Join(refs, ", "))
		}
	}
	pooled()
	for _, c := range calls {
		if _, err := c.do(false); err != nil {
			t.Fatal(err)
		}
	}
	wss := pooled()
	if len(wss) == 0 && !raceEnabled {
		t.Fatal("no workspace in the pool after a series of calls on one P")
	}
	for i, ws := range wss {
		if refs := references(reflect.ValueOf(ws), "ws", map[uintptr]bool{}); len(refs) > 0 {
			t.Errorf("pooled workspace %d holds %s", i, strings.Join(refs, ", "))
		}
	}
}

// TestPooledWorkspaceSkipsPanics: a call whose factory panics leaves its
// workspace half run, and it is not pooled; the calls after it are right.
// The panicking call runs 29 loops, a count no other call here has, so its
// workspace is the one pooled workspace sized for 29. Under the race
// detector, which drops pooled workspaces at random, only the absence is
// checked.
func TestPooledWorkspaceSkipsPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nl = 29
	calls := poolCalls(t)
	want := wantOutcomes(t, calls)
	specs := make([]LoopSpec, nl)
	for i := range specs {
		specs[i] = uniformSpec(fmt.Sprint("l", i), 50, 1)
	}
	cfg := baseCfg(platform1B1S(t), 2, amp.BindBS, nil)
	sized29 := func() bool {
		found := false
		for _, ws := range pooled() {
			found = found || len(ws.arrive) == nl
		}
		return found
	}
	for _, panics := range []bool{false, true} {
		built := 0
		cfg.Factory = func(info core.LoopInfo) (core.Scheduler, error) {
			if built++; panics && built == nl {
				panic("factory fails")
			}
			return core.NewAIDDynamic(info, 1, 5)
		}
		pooled()
		func() {
			defer func() {
				if r := recover(); (r != nil) != panics {
					t.Fatalf("panicking factory %v: recovered %v", panics, r)
				}
			}()
			if _, err := RunLoops(cfg, specs, nil, 0); err != nil {
				t.Fatal(err)
			}
		}()
		if found := sized29(); panics && found {
			t.Error("the workspace of a call whose factory panicked was pooled")
		} else if !panics && !found && !raceEnabled {
			t.Fatal("the workspace of a call that returned was not pooled")
		}
		for i, c := range calls {
			got, err := c.do(false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s after a call whose factory panicked %v:\n got %+v\nwant %+v", c.name, panics, got, want[i])
			}
		}
	}
}

// TestPooledRunProgramAllocs: a warm, unrecorded one-loop RunProgram takes
// its workspace, fleet, ledgers and tables, and its scratch result, from the
// pool. What it allocates is the loop description's TypeOf mapping and, under
// an AID schedule, the copy of the final SF estimate that its result gets,
// besides what its factory allocates; the factory here hands out one
// scheduler, re-armed, so that it allocates nothing. Without the pool it is
// some thirty objects more.
func TestPooledRunProgramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled workspaces at random")
	}
	pl := amp.PlatformA()
	loop := epLoop(640)
	prog := Program{Name: "p", Phases: []Phase{{Loop: &loop, Reps: 4}}}
	for _, c := range []struct {
		name    string
		factory SchedulerFactory
		bound   float64
	}{
		{"static", staticFactory, 1},
		{"dynamic,1", dynamicFactory, 1},
		{"aid-static,1", aidStaticFactory, 2},
		{"aid-dynamic,1,5", aidDynamicFactory, 2},
	} {
		cfg := baseCfg(pl, pl.NumCores(), amp.BindBS, nil)
		var s core.Scheduler
		cfg.Factory = func(info core.LoopInfo) (core.Scheduler, error) {
			if s == nil {
				var err error
				s, err = c.factory(info)
				return s, err
			}
			return s, s.(core.Resettable).Reset(info)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := RunProgram(cfg, prog); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.bound {
			t.Errorf("%s: a warm one-loop RunProgram allocates %.1f objects, want at most %.0f", c.name, allocs, c.bound)
		}
	}
}
