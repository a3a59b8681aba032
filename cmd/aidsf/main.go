// aidsf measures per-loop offline speedup factors with the paper's method
// (§2): run each loop with a single thread on a big core and on a small
// core, and report the completion-time ratio. With no flags it regenerates
// Fig. 2 (the first 30 loops of BT and CG on both platforms).
//
// Usage:
//
//	aidsf                           # Fig 2 (BT and CG, Platforms A and B)
//	aidsf -app blackscholes         # all loops of one workload, both platforms
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/amp"
	"repro/internal/exps"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "", "workload to measure (default: Fig 2 = BT and CG)")
	platform := flag.String("platform", "", "restrict to one platform: a registry name or a platform JSON file (default: A and B)")
	flag.Parse()

	if err := run(os.Stdout, *app, *platform); err != nil {
		fmt.Fprintln(os.Stderr, "aidsf:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, app, platform string) error {
	if app == "" {
		series, err := exps.RunFig2()
		if err != nil {
			return err
		}
		for _, s := range series {
			fmt.Fprintln(w, s.Render())
		}
		return nil
	}
	wl, ok := workloads.ByName(app)
	if !ok {
		var names []string
		for _, x := range workloads.All() {
			names = append(names, x.Name)
		}
		return fmt.Errorf("unknown workload %q; available: %s", app, strings.Join(names, ", "))
	}
	platforms := []*amp.Platform{amp.PlatformA(), amp.PlatformB()}
	if platform != "" {
		pl, err := amp.Resolve(platform)
		if err != nil {
			return err
		}
		platforms = []*amp.Platform{pl}
	}
	for _, pl := range platforms {
		fmt.Fprintf(w, "%s — per-loop offline SF on Platform %s\n", wl.Name, pl.Name)
		for i, spec := range wl.Program.Loops() {
			sf, err := sim.MeasureLoopSF(pl, spec)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "loop %2d %-14s SF %5.2f  %s\n", i, spec.Name, sf, strings.Repeat("*", int(sf*4+0.5)))
		}
		fmt.Fprintln(w)
	}
	return nil
}
