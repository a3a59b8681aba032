package core_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// conformanceSchedules is the schedule that selects each entry of the
// conformance set, for every entry but aid-static-offline: an offline SF
// table is no part of a Schedule, so nothing builds that one through Factory.
var conformanceSchedules = map[string]core.Schedule{
	"static":             {Kind: core.KindStatic},
	"static-chunked":     {Kind: core.KindStaticChunked, Chunk: 3},
	"dynamic":            {Kind: core.KindDynamic, Chunk: 1},
	"dynamic-4":          {Kind: core.KindDynamic, Chunk: 4},
	"guided":             {Kind: core.KindGuided, Chunk: 1},
	"aid-static":         {Kind: core.KindAIDStatic, Chunk: 1},
	"aid-hybrid":         {Kind: core.KindAIDHybrid, Chunk: 1, Pct: 0.8},
	"aid-dynamic":        {Kind: core.KindAIDDynamic, Chunk: 1, Major: 5},
	"work-steal":         {Kind: core.KindWorkSteal, Chunk: 2},
	"static-chunked-max": {Kind: core.KindStaticChunked, Chunk: math.MaxInt64},
	"dynamic-max":        {Kind: core.KindDynamic, Chunk: math.MaxInt64},
	"guided-max":         {Kind: core.KindGuided, Chunk: math.MaxInt64},
	"aid-static-max":     {Kind: core.KindAIDStatic, Chunk: math.MaxInt64},
	"aid-hybrid-max":     {Kind: core.KindAIDHybrid, Chunk: math.MaxInt64, Pct: 0.8},
	"aid-dynamic-max":    {Kind: core.KindAIDDynamic, Chunk: math.MaxInt64, Major: math.MaxInt64},
}

// spareCase is one schedule on one platform under one binding.
type spareCase struct {
	name    string
	pl      *amp.Platform
	binding amp.Binding
}

// spareCases covers every schedule of conformanceSchedules on Platforms A
// and B under both bindings.
func spareCases() []spareCase {
	var cases []spareCase
	for _, pl := range []*amp.Platform{amp.PlatformA(), amp.PlatformB()} {
		for _, binding := range []amp.Binding{amp.BindBS, amp.BindSB} {
			for name := range conformanceSchedules {
				cases = append(cases, spareCase{name, pl, binding})
			}
		}
	}
	return cases
}

// spareSpec is the loop every case measures.
var spareSpec = sim.LoopSpec{Name: "measured", NI: 3_001, Profile: amp.Profile{ILP: 0.3, MemIntensity: 0.4},
	Cost: sim.UniformCost{PerIter: 1500}}

// fresh runs spareSpec under a new scheduler of the case's conformance entry.
func (c spareCase) fresh(t *testing.T) sim.LoopResult {
	cfg := sim.Config{Platform: c.pl, NThreads: c.pl.NumCores(), Binding: c.binding,
		Factory: func(info core.LoopInfo) (core.Scheduler, error) {
			return core.ConformanceSchedulers(t, info)[c.name], nil
		}}
	res, err := sim.RunLoop(cfg, spareSpec, 1000)
	if err != nil {
		t.Fatalf("%s on %s/%s: fresh: %v", c.name, c.pl.Name, c.binding, err)
	}
	return res
}

// rearmed runs a recorded loop that migrates a thread under the case's
// schedule, which leaves its scheduler a spare, then spareSpec under the
// same schedule. It returns the second run's result and both runs'
// schedulers.
func (c spareCase) rearmed() (res sim.LoopResult, warm, used core.Scheduler, err error) {
	build := conformanceSchedules[c.name].Factory()
	n := c.pl.NumCores()
	cfg := sim.Config{Platform: c.pl, NThreads: n, Binding: c.binding,
		Migrations: []sim.Migration{{AtNs: 40_000, Tid: 0, ToCPU: n - 1}},
		Recorder:   trace.NewTimedRecorder(),
		Factory: func(info core.LoopInfo) (core.Scheduler, error) {
			s, err := build(info)
			warm = s
			return s, err
		}}
	first := sim.LoopSpec{Name: "warm", NI: 20_011, Profile: amp.Profile{ILP: 0.7, MemIntensity: 0.1},
		Cost: sim.LinearCost{Base: 900, Slope: 0.4}}
	if _, err = sim.RunLoop(cfg, first, 0); err != nil {
		return
	}
	cfg.Migrations, cfg.Recorder = nil, nil
	cfg.Factory = func(info core.LoopInfo) (core.Scheduler, error) {
		s, err := build(info)
		used = s
		return s, err
	}
	res, err = sim.RunLoop(cfg, spareSpec, 1000)
	return
}

// TestSparesMatchFresh: a scheduler that Schedule.Factory re-arms from the
// spares a recorded, migrating loop left behind is a new one, for every
// conformance schedule on Platforms A and B under both bindings. Serially,
// the second run must get the first run's scheduler back: its release made it
// the newest spare of its key. On four goroutines at once, which take each
// other's spares, only the results are compared.
func TestSparesMatchFresh(t *testing.T) {
	cases := spareCases()
	want := make([]sim.LoopResult, len(cases))
	for i, c := range cases {
		want[i] = c.fresh(t)
	}
	check := func(g, i int) {
		c := cases[i]
		got, warm, used, err := c.rearmed()
		if err != nil {
			t.Errorf("goroutine %d, %s on %s/%s: %v", g, c.name, c.pl.Name, c.binding, err)
			return
		}
		if g == 0 && used != warm {
			t.Errorf("%s on %s/%s: the build after a released loop did not re-arm its scheduler", c.name, c.pl.Name, c.binding)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("goroutine %d, %s on %s/%s: a re-armed spare and a new scheduler disagree:\nspare %+v\nfresh %+v",
				g, c.name, c.pl.Name, c.binding, got, want[i])
		}
	}
	for i := range cases {
		check(0, i)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				check(g, (k*g+g)%len(cases))
			}
		}(g)
	}
	wg.Wait()
}

// reaches lists what v reaches that a spare must not: a non-nil func,
// interface, map or channel (a TypeOf mapping, a phase observer), and any
// pointer to a named type outside the scheduler's own packages (a Config, a
// Recorder, a platform). Slices are read to their capacity. An
// atomic.Pointer's word, which points at the scheduler's own tables, is not
// followed.
func reaches(v reflect.Value, path string, seen map[uintptr]bool) []string {
	switch v.Kind() {
	case reflect.Func, reflect.Interface, reflect.Map, reflect.Chan:
		if !v.IsNil() {
			return []string{path + " (" + v.Type().String() + ")"}
		}
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return nil
		}
		switch v.Type().Elem().PkgPath() {
		case "", "repro/internal/core", "repro/internal/pool", "sync", "sync/atomic":
		default:
			return []string{path + " (" + v.Type().String() + ")"}
		}
		seen[v.Pointer()] = true
		return reaches(v.Elem(), path, seen)
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			out = append(out, reaches(v.Field(i), path+"."+v.Type().Field(i).Name, seen)...)
		}
		return out
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, reaches(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen)...)
		}
		return out
	}
	return nil
}

// TestSpareKeepsNoCall: a scheduler a simulator call recycled reaches none
// of the call's Config, Recorder, Metrics, platform or phase observer. Each
// conformance schedule runs a recorded, metered, migrating fleet of two
// loops, and every scheduler its factory built is read by reflection once
// the call has returned.
func TestSpareKeepsNoCall(t *testing.T) {
	pl := amp.PlatformA()
	n := pl.NumCores()
	for name, s := range conformanceSchedules {
		build := s.Factory()
		var built []core.Scheduler
		cfg := sim.Config{Platform: pl, NThreads: n, Binding: amp.BindBS, Metrics: true,
			Migrations: []sim.Migration{{AtNs: 40_000, Tid: 0, ToCPU: n - 1}},
			Recorder:   trace.NewTimedRecorder(),
			FactoryNamed: func(_ string, info core.LoopInfo) (core.Scheduler, error) {
				s, err := build(info)
				built = append(built, s)
				return s, err
			}}
		specs := []sim.LoopSpec{spareSpec, {Name: "second", NI: 700, Arrive: 20_000, Cost: sim.UniformCost{PerIter: 900}}}
		if _, err := sim.RunLoops(cfg, specs, nil, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, s := range built {
			if refs := reaches(reflect.ValueOf(s), "spare", map[uintptr]bool{}); len(refs) > 0 {
				t.Errorf("%s: the spare of loop %d holds %s", name, i, strings.Join(refs, ", "))
			}
		}
	}
}

// TestRecycleOnce: a scheduler is a spare once however often it is recycled,
// and one that Factory did not build never is one. Both use shapes no other
// test builds, so no other spare can be taken instead.
func TestRecycleOnce(t *testing.T) {
	info := core.LoopInfo{NI: 100, NThreads: 3, NumTypes: 1, TypeOf: func(int) int { return 0 }}
	s := core.Schedule{Kind: core.KindDynamic, Chunk: 7_777}
	build := s.Factory()
	a, err := build(info)
	if err != nil {
		t.Fatal(err)
	}
	core.Recycle(a)
	core.Recycle(a)
	first, _ := build(info)
	second, _ := build(info)
	if first != a || second == a {
		t.Errorf("a scheduler recycled twice was re-armed by %v of two builds, want the first only",
			[]bool{first == a, second == a})
	}
	own, err := core.NewDynamic(info, 7_778)
	if err != nil {
		t.Fatal(err)
	}
	core.Recycle(own)
	if got, _ := (core.Schedule{Kind: core.KindDynamic, Chunk: 7_778}).Factory()(info); got == core.Scheduler(own) {
		t.Error("Factory re-armed a scheduler its constructor built")
	}
}

// TestSparesHoldPeak: a key keeps as many spares as it had schedulers in use
// at once. k built at once and all recycled leave k spares, two collections
// later too, and a hundred cycles of one build and its recycling leave k,
// never more. The shape is one no other test builds.
func TestSparesHoldPeak(t *testing.T) {
	const k = 5
	info := core.LoopInfo{NI: 100, NThreads: 5, NumTypes: 1, TypeOf: func(int) int { return 0 }}
	s := core.Schedule{Kind: core.KindDynamic, Chunk: 7_779}
	build := s.Factory()
	var held []core.Scheduler
	for i := 0; i < k; i++ {
		x, err := build(info)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, x)
	}
	for _, x := range held {
		core.Recycle(x)
	}
	runtime.GC()
	runtime.GC()
	if n := core.SpareCount(s, info); n != k {
		t.Fatalf("%d schedulers built at once and recycled left %d spares after two collections, want %d", k, n, k)
	}
	for i := 0; i < 100; i++ {
		x, err := build(info)
		if err != nil {
			t.Fatal(err)
		}
		if n := core.SpareCount(s, info); n != k-1 {
			t.Fatalf("cycle %d: a build left %d spares, want %d", i, n, k-1)
		}
		core.Recycle(x)
		if n := core.SpareCount(s, info); n != k {
			t.Fatalf("cycle %d: a recycling left %d spares, want %d", i, n, k)
		}
	}
}
