package sim

import (
	"bufio"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.txt from this build's results")

const goldenPath = "testdata/engine_golden.txt"

// goldenSchedules has one member of every schedule family: block static,
// chunked self-scheduling (a sharded pool), guided (a shrinking chunk) and
// the AID family on the credit path with and without sampling.
var goldenSchedules = []struct {
	name string
	f    SchedulerFactory
}{
	{"static", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewStatic(i) }},
	{"dynamic4", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewDynamic(i, 4) }},
	{"guided2", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewGuided(i, 2) }},
	{"aid-static", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewAIDStatic(i, 1) }},
	{"aid-static-offline", func(i core.LoopInfo) (core.Scheduler, error) {
		sf := make([]float64, i.NumTypes)
		for t := range sf {
			sf[t] = 1 + 0.75*float64(i.NumTypes-1-t)
		}
		return core.NewAIDStaticOffline(i, 1, sf)
	}},
	{"aid-hybrid80", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewAIDHybrid(i, 1, 0.8) }},
	{"aid-dynamic1-5", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewAIDDynamic(i, 1, 5) }},
}

var goldenCosts = []struct {
	name string
	c    func(ni int64) CostModel
}{
	{"uniform", func(int64) CostModel { return UniformCost{PerIter: 20000} }},
	{"linear", func(ni int64) CostModel { return LinearCost{Base: 8000, Slope: 24000 / float64(ni+1)} }},
	{"block", func(int64) CostModel { return BlockNoisyCost{Base: 20000, Amp: 0.6, BlockLen: 37, Seed: 11} }},
}

// goldenPolicies are built per case: policies carry cursors.
var goldenPolicies = []struct {
	name string
	p    func() fair.Policy
}{
	{"wrr", func() fair.Policy { return fair.NewWeightedRoundRobin(0) }},
	{"fcfs", func() fair.Policy { return fair.NewFCFS() }},
}

// dumpResult prints a result field by field, in the spelling %+v gave the
// flat struct (Metrics as <nil>: a pointer, whose target is printed below),
// so that how the result type is composed does not move the digests of runs
// whose behaviour did not change.
func dumpResult(h hash.Hash64, r LoopResult) {
	fmt.Fprintf(h, "{Start:%d End:%d PoolAccesses:%d SchedNs:%d Iters:%v Finish:%v SchedulerName:%s "+
		"SFEstimate:%v EnergyJ:%v Metrics:<nil>}\n",
		r.Start, r.End, r.PoolAccesses, r.SchedNs, r.Iters, r.Finish, r.SchedulerName,
		r.SFEstimate, r.EnergyJ)
	if r.Metrics != nil {
		dumpSnapshot(h, r.Metrics)
	}
}

// dumpSnapshot prints a metrics snapshot field by field, for the same reason
// dumpRecord does: a counter later added to or dropped from obs.Counters
// does not move the digests of runs whose behaviour did not change.
func dumpSnapshot(h hash.Hash64, s *obs.Snapshot) {
	counters := func(c obs.Counters) {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d\n", c.Chunks, c.Iters, c.StealsHome, c.StealsSamePkg,
			c.StealsCross, c.CreditClaimed, c.BusyNs, c.SchedNs, c.IdleNs)
	}
	counters(s.Counters)
	fmt.Fprintf(h, "occupancy %v\n", s.OccupancyNs)
	for _, w := range s.Workers {
		counters(w)
	}
}

// dumpRecord prints the record field by field rather than through
// EncodeJSONL so that a field later added to the record format does not
// move the digests of runs whose behaviour did not change.
func dumpRecord(h hash.Hash64, rec *trace.Record) {
	fmt.Fprintf(h, "run %s %q %d %d %+v\n", rec.Engine, rec.Policy, rec.StartNs, rec.MakespanNs, rec.Migrations)
	for _, l := range rec.Loops {
		fmt.Fprintf(h, "loop %d %q %d %d %q %+v\n", l.Index, l.Name, l.NI, l.Weight, l.Scheduler, l.Cost)
	}
	for _, ev := range rec.Events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n", rec.Phases, rec.SFSamples, rec.Timeline)
}

// goldenTeam runs one fork/join loop and digests everything it reports.
// With observe set the run also carries every optional observer and four
// migrations, listed out of time order: a cross-cluster move of thread 0
// early on, the reverse move of the last thread later, a move within a
// cluster in between, and one that never comes due.
func goldenTeam(cfg Config, spec LoopSpec, startNs int64, observe bool) (uint64, error) {
	if observe {
		nt := cfg.NThreads
		cfg.Migrations = []Migration{
			{AtNs: startNs + 150_000, Tid: 0, ToCPU: cfg.Platform.CoreOf(nt-1, nt, cfg.Binding)},
			{AtNs: startNs + 700_000, Tid: nt - 1, ToCPU: cfg.Platform.CoreOf(0, nt, cfg.Binding)},
			{AtNs: startNs + 400_000, Tid: 1, ToCPU: cfg.Platform.CoreOf(0, nt, cfg.Binding)},
			{AtNs: 1 << 60, Tid: 2, ToCPU: 0},
		}
		cfg.Recorder = trace.NewTimedRecorder()
		cfg.Metrics = true
	}
	r, err := RunLoop(cfg, spec, startNs)
	if err != nil {
		return 0, err
	}
	if got := sumIters(r); got != spec.NI {
		return 0, fmt.Errorf("covered %d of %d iterations", got, spec.NI)
	}
	h := fnv.New64a()
	dumpResult(h, r)
	if observe {
		rec := cfg.Recorder.Record()
		if err := inEventOrder(rec); err != nil {
			return 0, err
		}
		dumpRecord(h, rec)
		// Each thread's intervals once more, as a list of its own.
		for _, ivs := range threadTimelines(rec) {
			fmt.Fprintf(h, "%+v\n", ivs)
		}
	}
	return h.Sum64(), nil
}

// goldenFleetSpecs are four loops for a fleet that starts at startNs:
// admitted at start, early in the first loop's run, mid-run, and long after
// the fleet has gone quiet, with mixed trip counts, mixes and weights.
func goldenFleetSpecs(cost func(int64) CostModel, startNs int64) []LoopSpec {
	specs := []LoopSpec{
		{Name: "at-start", NI: 2400, Profile: amp.Profile{ILP: 0.9, MemIntensity: 0.05}, Weight: 1},
		{Name: "early", NI: 1201, Profile: amp.Profile{ILP: 0.3, MemIntensity: 0.7}, Weight: 4, Arrive: startNs + 250_000},
		{Name: "mid", NI: 1, Profile: amp.Profile{ILP: 0.5, MemIntensity: 0.1}, Weight: 2, Arrive: startNs + 1_200_000},
		{Name: "after-quiet", NI: 1600, Profile: amp.Profile{ILP: 0.6, MemIntensity: 0.3}, Arrive: startNs + 1_000_000_000},
	}
	for i := range specs {
		specs[i].Cost = cost(specs[i].NI)
	}
	return specs
}

// goldenFleet runs goldenFleetSpecs under one schedule on the persistent
// fleet and digests everything it reports.
func goldenFleet(cfg Config, cost func(int64) CostModel, policy fair.Policy, startNs int64) (uint64, error) {
	specs := goldenFleetSpecs(cost, startNs)
	cfg.Recorder = trace.NewRecorder()
	cfg.Metrics = true
	rs, err := RunLoops(cfg, specs, policy, startNs)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for li, r := range rs {
		if got := sumIters(r); got != specs[li].NI {
			return 0, fmt.Errorf("loop %q covered %d of %d iterations", specs[li].Name, got, specs[li].NI)
		}
		dumpResult(h, r)
	}
	rec := cfg.Recorder.Record()
	if err := inEventOrder(rec); err != nil {
		return 0, err
	}
	dumpRecord(h, rec)
	return h.Sum64(), nil
}

// inEventOrder fails unless rec's events are in trace.EventOrder, as the
// simulator streams them: the reason it needs no merge of its own, and
// replay reads its records in place.
func inEventOrder(rec *trace.Record) error {
	for i := 1; i < len(rec.Events); i++ {
		if trace.EventOrder(rec.Events[i-1], rec.Events[i]) > 0 {
			return fmt.Errorf("event %d %+v comes before event %d %+v", i-1, rec.Events[i-1], i, rec.Events[i])
		}
	}
	return nil
}

// TestEngineGolden pins the simulator's observable behaviour bit for bit:
// for every zoo platform x schedule family x cost model x binding it digests
// the formatted results, metrics snapshots, run records and timelines of a
// plain team run, a team run with migrations and every observer attached,
// and a fleet of four staggered loops under each fairness policy, and
// compares each digest with testdata/engine_golden.txt. That file was
// generated at the commit before RunLoop and RunLoops were merged into one
// engine (this test file compiles there unchanged); after a deliberate
// behaviour change regenerate it with
//
//	go test ./internal/sim -run TestEngineGolden -update
//
// Each of the 630 run records must also hold its events in
// trace.EventOrder.
func TestEngineGolden(t *testing.T) {
	got := map[string]uint64{}
	var order []string
	for _, plName := range amp.Names() {
		for _, sc := range goldenSchedules {
			for _, cm := range goldenCosts {
				for _, b := range []amp.Binding{amp.BindBS, amp.BindSB} {
					pl, _ := amp.Lookup(plName)
					cfg := Config{Platform: pl, NThreads: pl.NumCores(), Binding: b, Factory: sc.f}
					// SB cases start off zero so that arrival clamping and
					// absolute event times are exercised.
					startNs := int64(0)
					if b == amp.BindSB {
						startNs = 7_777
					}
					base := fmt.Sprintf("%s/%s/%s/%s", plName, sc.name, cm.name, b)
					add := func(variant string, digest uint64, err error) {
						name := base + "/" + variant
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got[name] = digest
						order = append(order, name)
					}
					spec := LoopSpec{Name: "golden", NI: 3001, Profile: amp.Profile{ILP: 0.7, MemIntensity: 0.2},
						Cost: cm.c(3001), Weight: 3, Arrive: startNs + 123_456} // team mode ignores both
					d, err := goldenTeam(cfg, spec, startNs, false)
					add("team", d, err)
					d, err = goldenTeam(cfg, spec, startNs, true)
					add("team-observed", d, err)
					for _, pol := range goldenPolicies {
						d, err = goldenFleet(cfg, cm.c, pol.p(), startNs)
						add("fleet-"+pol.name, d, err)
					}
				}
			}
		}
	}
	if *updateGolden {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s %016x\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var name string
		var want uint64
		if _, err := fmt.Sscanf(sc.Text(), "%s %x", &name, &want); err != nil {
			t.Fatalf("%s: malformed line %q: %v", goldenPath, sc.Text(), err)
		}
		seen++
		if g, ok := got[name]; !ok {
			t.Errorf("%s: golden case no longer runs", name)
		} else if g != want {
			t.Errorf("%s: digest %016x, golden %016x", name, g, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(got) {
		t.Errorf("%d cases ran, %s has %d", len(got), goldenPath, seen)
	}
}
