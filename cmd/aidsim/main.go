// aidsim runs ad-hoc parallel-loop simulations: a single loop described on
// the command line, executed on a modeled platform under one or all
// schedules, with optional tracing and migration injection. It is the
// exploration companion to the fixed experiments of aidbench.
//
// Examples:
//
//	aidsim -ni 4096 -cost 100000 -ilp 0.6 -mem 0.2
//	aidsim -platform B -sched aid-dynamic,1,5 -trace
//	aidsim -platform Tri -threads 8 -sched all
//	aidsim -migrate 0:1:1000000 -sched aid-dynamic,1,20
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aidsim:", err)
		os.Exit(1)
	}
}

// every is -sched all: each kind under its default parameters, work-steal at
// chunk 16.
var every = []core.Schedule{
	{Kind: core.KindStatic},
	{Kind: core.KindDynamic},
	{Kind: core.KindGuided},
	{Kind: core.KindAIDStatic},
	{Kind: core.KindAIDHybrid},
	{Kind: core.KindAIDDynamic},
	{Kind: core.KindWorkSteal, Chunk: 16},
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("aidsim", flag.ContinueOnError)
	pl, list := amp.PlatformFlag{Platform: amp.PlatformA()}, false
	fs.Func("platform", "platform: a registry name, a platform JSON file, or list to print the registry (default A)", func(text string) error {
		if list = strings.EqualFold(text, "list"); list {
			return nil
		}
		return pl.Set(text)
	})
	threads := fs.Int("threads", 0, "worker threads (default: all cores)")
	binding := amp.BindBS
	fs.Var(&binding, "binding", "thread binding: SB or BS (default BS)")
	schedules := every
	fs.Func("sched", "schedule (GOOMP_SCHEDULE syntax) or 'all' (default all)", func(text string) error {
		if text == "all" {
			schedules = every
			return nil
		}
		schedules = []core.Schedule{{}}
		return schedules[0].Set(text)
	})
	ni := fs.Int64("ni", 4096, "loop trip count")
	cost := fs.Float64("cost", 100000, "work units per iteration")
	slope := fs.Float64("slope", 0, "linear cost slope (units per iteration index)")
	ilp := fs.Float64("ilp", 0.5, "instruction-level parallelism in [0,1]")
	mem := fs.Float64("mem", 0.3, "memory intensity in [0,1]")
	footprint := fs.Float64("footprint", 0.2, "per-thread working set in MB")
	showTrace := fs.Bool("trace", false, "render an execution trace")
	var migrations []sim.Migration
	fs.Func("migrate", "inject migrations: tid:cpu:atNs[,tid:cpu:atNs...]", func(text string) (err error) {
		migrations, err = parseMigrations(text)
		return err
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if list {
		fmt.Fprintln(w, strings.Join(amp.Names(), "\n"))
		return nil
	}
	var costModel sim.CostModel = sim.UniformCost{PerIter: *cost}
	if *slope != 0 {
		costModel = sim.LinearCost{Base: *cost, Slope: *slope}
	}
	spec := sim.LoopSpec{
		Name:    "aidsim-loop",
		NI:      *ni,
		Profile: amp.Profile{ILP: *ilp, MemIntensity: *mem, FootprintMB: *footprint},
		Cost:    costModel,
	}

	nt := *threads
	if nt == 0 {
		nt = pl.NumCores()
	}
	fmt.Fprintf(w, "platform %s, %d threads, %s binding, NI=%d, profile{ILP %.2f, mem %.2f, fp %.2fMB}\n",
		pl.Name, nt, binding, *ni, *ilp, *mem, *footprint)
	if sf, err := sim.MeasureLoopSF(pl.Platform, spec); err == nil {
		fmt.Fprintf(w, "offline SF: %.2f\n", sf)
	}
	for _, sched := range schedules {
		cfg := sim.Config{
			Platform:   pl.Platform,
			NThreads:   *threads,
			Binding:    binding,
			Factory:    sched.Factory(),
			Migrations: migrations,
		}
		if *showTrace {
			cfg.Recorder = trace.NewTimedRecorder()
		}
		res, err := sim.RunLoop(cfg, spec, 0)
		if err != nil {
			return err
		}
		var iters int64
		for _, n := range res.Iters {
			iters += n
		}
		fmt.Fprintf(w, "%-20s %12.3f ms   pool accesses %7d   sched time %8.3f ms   iterations %d/%d\n",
			sched, float64(res.End-res.Start)/1e6, res.PoolAccesses, float64(res.SchedNs)/1e6, iters, *ni)
		if iters != *ni {
			return fmt.Errorf("schedule %s executed %d of %d iterations", sched, iters, *ni)
		}
		if *showTrace {
			fmt.Fprint(w, cfg.Recorder.Record().Render(88))
		}
	}
	return nil
}

// parseMigrations parses "tid:cpu:atNs" triples separated by commas.
func parseMigrations(text string) ([]sim.Migration, error) {
	var out []sim.Migration
	for _, part := range strings.Split(text, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad migration %q, want tid:cpu:atNs", part)
		}
		tid, err1 := strconv.Atoi(fields[0])
		cpu, err2 := strconv.Atoi(fields[1])
		at, err3 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("bad migration %q, want tid:cpu:atNs", part)
		}
		out = append(out, sim.Migration{AtNs: at, Tid: tid, ToCPU: cpu})
	}
	return out, nil
}
