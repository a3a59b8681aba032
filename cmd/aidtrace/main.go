// aidtrace renders the Paraver-style trace of a workload's loop under any
// schedule, and fronts the record & replay subsystem (internal/replay): runs
// can be serialized to JSONL, re-executed deterministically, counterfactually
// re-scheduled, and diffed for regressions.
//
// Usage:
//
//	aidtrace -app EP -sched aid-dynamic,1,5 -binding BS
//
//	aidtrace -app EP -sched dynamic,1 -record run.jsonl
//	                                # record a simulated run (first loop of
//	                                # the workload) as a serialized trace
//	aidtrace -app EP -engine rt -record run.jsonl
//	                                # record the real-goroutine engine
//	                                # executing a synthetic body instead
//	aidtrace -replay run.jsonl [-o replayed.jsonl]
//	                                # exact replay: re-execute the recorded
//	                                # chunk assignments in virtual time and
//	                                # verify coverage (and, for sim records,
//	                                # the exact makespan and event times)
//	aidtrace -whatif run.jsonl -sched aid-static [-policy wrr|fcfs|sf-aware] [-o out.jsonl]
//	                                # keep the recorded workload, swap the
//	                                # scheduler/policy, compare to the record
//	aidtrace -diff a.jsonl,b.jsonl [-tol 2]
//	                                # regression report between two runs;
//	                                # exits non-zero if regressions exceed
//	                                # the tolerance (CI gate)
//
// In the free-form and record modes, -app names any workload (its first
// parallel loop is used), -sched uses the GOOMP_SCHEDULE syntax and
// -binding is SB/BS.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/exps"
	"repro/internal/replay"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "", "workload name for free-form tracing (e.g. EP)")
	schedText := flag.String("sched", "aid-static", "schedule in GOOMP_SCHEDULE syntax")
	bindingText := flag.String("binding", "BS", "thread binding: SB or BS")
	platform := flag.String("platform", "A", "platform: a registry name or a platform JSON file")
	engine := flag.String("engine", "sim", "record engine: sim (virtual time) or rt (real goroutines)")
	recordPath := flag.String("record", "", "record the run to this JSONL file")
	replayPath := flag.String("replay", "", "exact-replay the given record file")
	whatifPath := flag.String("whatif", "", "what-if replay the given record file (see -sched/-policy)")
	diffPaths := flag.String("diff", "", "diff two record files: a.jsonl,b.jsonl")
	policy := flag.String("policy", "", "what-if fairness policy for multi-loop records: wrr, fcfs or sf-aware")
	outPath := flag.String("o", "", "write the replayed run's record to this JSONL file")
	tol := flag.Float64("tol", 2.0, "regression tolerance in percent for -diff and the -whatif report")
	flag.Parse()

	schedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "sched" {
			schedSet = true
		}
	})

	var err error
	switch {
	case *diffPaths != "":
		err = runDiff(*diffPaths, *tol)
	case *replayPath != "":
		err = runReplay(*replayPath, *outPath)
	case *whatifPath != "":
		override := ""
		if schedSet {
			override = *schedText
		}
		err = runWhatIf(*whatifPath, override, *policy, *outPath, *tol)
	case *recordPath != "":
		err = runRecord(*recordPath, *app, *schedText, *bindingText, *platform, *engine)
	default:
		err = run(*app, *schedText, *bindingText, *platform)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aidtrace:", err)
		os.Exit(1)
	}
}

// resolved is the outcome of mapping the free-form flags to an executable
// configuration: the named workload's first parallel loop on the selected
// platform.
type resolved struct {
	workload string
	spec     sim.LoopSpec
	sched    core.Schedule
	binding  amp.Binding
	pl       *amp.Platform
}

func resolveWorkload(app, schedText, bindingText, platform string) (resolved, error) {
	w, ok := workloads.ByName(app)
	if !ok {
		var names []string
		for _, x := range workloads.All() {
			names = append(names, x.Name)
		}
		return resolved{}, fmt.Errorf("unknown workload %q; available: %s", app, strings.Join(names, ", "))
	}
	sched, err := core.ParseSchedule(schedText)
	if err != nil {
		return resolved{}, err
	}
	binding, err := amp.ParseBinding(bindingText)
	if err != nil {
		return resolved{}, err
	}
	pl, err := amp.Resolve(platform)
	if err != nil {
		return resolved{}, err
	}
	loops := w.Program.Loops()
	if len(loops) == 0 {
		return resolved{}, fmt.Errorf("workload %s has no parallel loops", app)
	}
	return resolved{workload: w.Name, spec: loops[0], sched: sched, binding: binding, pl: pl}, nil
}

// runRecord records one loop execution — simulated (virtual time, exact
// replayability) or real (rt engine, wall-clock capture) — to a JSONL file.
func runRecord(path, app, schedText, bindingText, platform, engine string) error {
	if app == "" {
		return fmt.Errorf("-record needs -app <workload>")
	}
	r, err := resolveWorkload(app, schedText, bindingText, platform)
	if err != nil {
		return err
	}
	var rec *trace.Record
	switch engine {
	case "sim":
		recorder := trace.NewRecorder()
		cfg := sim.Config{
			Platform: r.pl,
			NThreads: r.pl.NumCores(),
			Binding:  r.binding,
			Factory:  r.sched.Factory(),
			Trace:    trace.New(r.pl.NumCores()),
			Recorder: recorder,
		}
		res, err := sim.RunLoop(cfg, r.spec, 0)
		if err != nil {
			return err
		}
		recorder.SetLoopSchedule(0, r.sched.Canonical())
		rec = recorder.Record()
		fmt.Printf("recorded %s / loop %q / %s / %s / Platform %s: makespan %d ns, %d events\n",
			r.workload, r.spec.Name, r.sched, r.binding, r.pl.Name, res.End-res.Start, len(rec.Events))
	case "rt":
		// The real engine runs an arbitrary Go body; synthesize one whose
		// per-chunk work follows the workload's cost model (scaled down so
		// the demo completes quickly) and which yields between chunks so
		// the whole fleet participates even on GOMAXPROCS=1.
		team, err := rt.NewTeam(rt.TeamConfig{
			Platform: r.pl,
			Binding:  r.binding,
			Schedule: r.sched,
			Profile:  r.spec.Profile,
		})
		if err != nil {
			return err
		}
		cost := r.spec.Cost
		sinks := make([]struct {
			v float64
			_ [56]byte
		}, team.NThreads())
		rec, _, err = team.RecordParallelFor(r.spec.Name, r.spec.NI, func(tid int, lo, hi int64) {
			spin := int64(cost.RangeUnits(lo, hi) / 1000)
			s := 0.0
			for k := int64(0); k < spin; k++ {
				s += float64(k&7) * 0.5
			}
			sinks[tid].v += s // keeps the spin from being optimized away
			runtime.Gosched()
		})
		if err != nil {
			return err
		}
		fmt.Printf("recorded %s / loop %q / %s / %s / Platform %s (rt engine): makespan %d ns, %d events\n",
			r.workload, r.spec.Name, r.sched, r.binding, r.pl.Name, rec.MakespanNs, len(rec.Events))
	default:
		return fmt.Errorf("engine must be sim or rt, got %q", engine)
	}
	if err := trace.WriteFile(path, rec); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runReplay exact-replays a record file and reports the verification.
func runReplay(path, outPath string) error {
	rec, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := replay.Exact(rec)
	if err != nil {
		return err
	}
	verified := "coverage and grant sequence verified"
	if rec.Engine == "sim" {
		verified = "coverage, event times and makespan verified exactly"
	}
	fmt.Printf("exact replay of %s (%s engine, %d loops, %d events): %s\n",
		path, rec.Engine, len(rec.Loops), len(rec.Events), verified)
	fmt.Printf("makespan: recorded %d ns, replayed %d ns\n", rec.MakespanNs, res.MakespanNs)
	if tr := res.Record.Trace(); tr != nil {
		fmt.Print(tr.Render(88))
	}
	if outPath != "" {
		if err := trace.WriteFile(outPath, res.Record); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}

// runWhatIf re-executes the recorded workload under a swapped configuration
// and diffs the counterfactual against the record.
func runWhatIf(path, schedOverride, policy, outPath string, tolPct float64) error {
	rec, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	res, err := replay.WhatIf(rec, replay.WhatIfConfig{Schedule: schedOverride, Policy: policy})
	if err != nil {
		return err
	}
	what := "recorded schedule"
	if schedOverride != "" {
		what = fmt.Sprintf("schedule %q", schedOverride)
	}
	fmt.Printf("what-if replay of %s under %s:\n", path, what)
	// The diff baseline must live in the same time domain as the
	// counterfactual: a sim record already does, but an rt record carries
	// wall-clock measurements, so re-run its recorded schedule in virtual
	// time and diff the two simulated runs.
	baseline := rec
	if rec.Engine != "sim" {
		base, err := replay.WhatIf(rec, replay.WhatIfConfig{Policy: policy})
		if err != nil {
			return err
		}
		baseline = base.Record
		fmt.Printf("baseline: recorded schedule re-run in virtual time, makespan %d ns (recorded wall clock: %d ns)\n",
			baseline.MakespanNs, rec.MakespanNs)
	}
	fmt.Printf("makespan: baseline %d ns -> what-if %d ns\n", baseline.MakespanNs, res.MakespanNs)
	fmt.Print(replay.Diff(baseline, res.Record, tolPct))
	if tr := res.Record.Trace(); tr != nil {
		fmt.Print(tr.Render(88))
	}
	if outPath != "" {
		if err := trace.WriteFile(outPath, res.Record); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}

// runDiff compares two record files and fails (non-zero exit) on
// regressions, so it can gate CI.
func runDiff(paths string, tolPct float64) error {
	parts := strings.Split(paths, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-diff wants two files: a.jsonl,b.jsonl")
	}
	a, err := trace.ReadFile(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	b, err := trace.ReadFile(strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	rep := replay.Diff(a, b, tolPct)
	fmt.Print(rep)
	if rep.Regressions > 0 {
		return fmt.Errorf("%d regression(s)", rep.Regressions)
	}
	return nil
}

func run(app, schedText, bindingText, platform string) error {
	if app == "" {
		return fmt.Errorf("need -app <workload> or a -record/-replay/-whatif/-diff invocation")
	}
	r, err := resolveWorkload(app, schedText, bindingText, platform)
	if err != nil {
		return err
	}
	tr, err := exps.TraceLoop(r.pl, r.pl.NumCores(), exps.Scheme{Sched: r.sched, Binding: r.binding}, r.spec,
		fmt.Sprintf("%s / loop %q / %s / %s binding / Platform %s", r.workload, r.spec.Name, r.sched, r.binding, r.pl.Name))
	if err != nil {
		return err
	}
	fmt.Print(tr.Render())
	return nil
}
