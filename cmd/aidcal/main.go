// aidcal is the speedup-factor (SF) calibration helper: per workload, the
// range of its loops' offline SF (§2: one thread on a big core, then on a
// small one) and online SF (both clusters fully busy); with -app, each loop's
// offline SF.
//
//	aidcal [-platform A]
//	aidcal -app blackscholes [-platform B]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/amp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "", "print the per-loop offline SF of this workload")
	platform := flag.String("platform", "A", "platform: a registry name or a platform JSON file")
	flag.Parse()
	if err := run(os.Stdout, *app, *platform); err != nil {
		fmt.Fprintln(os.Stderr, "aidcal:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, app, platform string) error {
	pl, err := amp.Resolve(platform)
	if err != nil {
		return err
	}
	if app != "" {
		return loopSF(w, app, pl)
	}
	// Online SF at the occupancy a full team gives the clusters SF compares.
	activeBig := pl.Clusters[pl.ClusterOf(pl.NumCores()-1)].NumCores
	activeSmall := pl.Clusters[pl.ClusterOf(0)].NumCores
	for _, wl := range workloads.All() {
		loops := wl.Program.Loops()
		minOff, maxOff, minOn, maxOn := 1e9, 0.0, 1e9, 0.0
		for _, l := range loops {
			off, err := sim.MeasureLoopSF(pl, l)
			if err != nil {
				return fmt.Errorf("%s loop %s: %w", wl.Name, l.Name, err)
			}
			on := pl.SF(l.Profile, activeBig, activeSmall)
			minOff, maxOff = min(minOff, off), max(maxOff, off)
			minOn, maxOn = min(minOn, on), max(maxOn, on)
		}
		fmt.Fprintf(w, "%-16s loops=%2d  offlineSF[%5.2f %5.2f]  onlineSF[%5.2f %5.2f]\n",
			wl.Name, len(loops), minOff, maxOff, minOn, maxOn)
	}
	return nil
}

// loopSF prints the offline SF of every loop of one workload.
func loopSF(w io.Writer, app string, pl *amp.Platform) error {
	wl, ok := workloads.ByName(app)
	if !ok {
		var names []string
		for _, x := range workloads.All() {
			names = append(names, x.Name)
		}
		return fmt.Errorf("unknown workload %q; available: %s", app, strings.Join(names, ", "))
	}
	fmt.Fprintf(w, "%s — per-loop offline SF on Platform %s\n", wl.Name, pl.Name)
	for i, spec := range wl.Program.Loops() {
		sf, err := sim.MeasureLoopSF(pl, spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "loop %2d %-14s SF %5.2f  %s\n", i, spec.Name, sf, strings.Repeat("*", int(sf*4+0.5)))
	}
	fmt.Fprintln(w)
	return nil
}
