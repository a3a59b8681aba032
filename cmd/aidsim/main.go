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
	platform := flag.String("platform", "A", "platform: a registry name (aidsim -platform list) or a platform JSON file")
	threads := flag.Int("threads", 0, "worker threads (default: all cores)")
	bindingText := flag.String("binding", "BS", "thread binding: SB or BS")
	schedText := flag.String("sched", "all", "schedule (GOOMP_SCHEDULE syntax) or 'all'")
	ni := flag.Int64("ni", 4096, "loop trip count")
	cost := flag.Float64("cost", 100000, "work units per iteration")
	slope := flag.Float64("slope", 0, "linear cost slope (units per iteration index)")
	ilp := flag.Float64("ilp", 0.5, "instruction-level parallelism in [0,1]")
	mem := flag.Float64("mem", 0.3, "memory intensity in [0,1]")
	footprint := flag.Float64("footprint", 0.2, "per-thread working set in MB")
	showTrace := flag.Bool("trace", false, "render an execution trace")
	migrate := flag.String("migrate", "", "inject migrations: tid:cpu:atNs[,tid:cpu:atNs...]")
	flag.Parse()

	if err := run(os.Stdout, *platform, *threads, *bindingText, *schedText, *ni, *cost, *slope,
		*ilp, *mem, *footprint, *showTrace, *migrate); err != nil {
		fmt.Fprintln(os.Stderr, "aidsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, platform string, threads int, bindingText, schedText string,
	ni int64, cost, slope, ilp, mem, footprint float64, showTrace bool, migrate string) error {
	if strings.EqualFold(platform, "list") {
		fmt.Fprintln(w, strings.Join(amp.Names(), "\n"))
		return nil
	}
	pl, err := amp.Resolve(platform)
	if err != nil {
		return err
	}
	if threads == 0 {
		threads = pl.NumCores()
	}
	binding, err := amp.ParseBinding(bindingText)
	if err != nil {
		return err
	}
	var costModel sim.CostModel = sim.UniformCost{PerIter: cost}
	if slope != 0 {
		costModel = sim.LinearCost{Base: cost, Slope: slope}
	}
	spec := sim.LoopSpec{
		Name:    "aidsim-loop",
		NI:      ni,
		Profile: amp.Profile{ILP: ilp, MemIntensity: mem, FootprintMB: footprint},
		Cost:    costModel,
	}
	migrations, err := parseMigrations(migrate)
	if err != nil {
		return err
	}

	var schedules []core.Schedule
	if schedText == "all" {
		schedules = []core.Schedule{
			{Kind: core.KindStatic},
			{Kind: core.KindDynamic},
			{Kind: core.KindGuided},
			{Kind: core.KindAIDStatic},
			{Kind: core.KindAIDHybrid},
			{Kind: core.KindAIDDynamic},
			{Kind: core.KindWorkSteal, Chunk: 16},
		}
	} else {
		s, err := core.ParseSchedule(schedText)
		if err != nil {
			return err
		}
		schedules = []core.Schedule{s}
	}

	fmt.Fprintf(w, "platform %s, %d threads, %s binding, NI=%d, profile{ILP %.2f, mem %.2f, fp %.2fMB}\n",
		pl.Name, threads, binding, ni, ilp, mem, footprint)
	if sf, err := sim.MeasureLoopSF(pl, spec); err == nil {
		fmt.Fprintf(w, "offline SF: %.2f\n", sf)
	}
	for _, sched := range schedules {
		cfg := sim.Config{
			Platform:   pl,
			NThreads:   threads,
			Binding:    binding,
			Factory:    sched.Factory(),
			Migrations: migrations,
		}
		if showTrace {
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
			sched, float64(res.End-res.Start)/1e6, res.PoolAccesses, float64(res.SchedNs)/1e6, iters, ni)
		if iters != ni {
			return fmt.Errorf("schedule %s executed %d of %d iterations", sched, iters, ni)
		}
		if showTrace {
			fmt.Fprint(w, cfg.Recorder.Record().Render(88))
		}
	}
	return nil
}

// parseMigrations parses "tid:cpu:atNs" triples separated by commas.
func parseMigrations(text string) ([]sim.Migration, error) {
	if text == "" {
		return nil, nil
	}
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
