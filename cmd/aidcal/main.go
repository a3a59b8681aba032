// aidcal is a calibration helper: prints per-loop offline/online SF and
// effective per-app gains to guide model tuning.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/amp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	platform := flag.String("platform", "A", "platform: a registry name or a platform JSON file")
	flag.Parse()
	if err := run(os.Stdout, *platform); err != nil {
		fmt.Fprintln(os.Stderr, "aidcal:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, platform string) error {
	pl, err := amp.Resolve(platform)
	if err != nil {
		return err
	}
	for _, wl := range workloads.All() {
		loops := wl.Program.Loops()
		minOff, maxOff, minOn, maxOn := 1e9, 0.0, 1e9, 0.0
		for _, l := range loops {
			off, err := sim.MeasureLoopSF(pl, l)
			if err != nil {
				return fmt.Errorf("%s loop %s: %w", wl.Name, l.Name, err)
			}
			on := pl.SF(l.Profile, 4, 4)
			if off < minOff {
				minOff = off
			}
			if off > maxOff {
				maxOff = off
			}
			if on < minOn {
				minOn = on
			}
			if on > maxOn {
				maxOn = on
			}
		}
		fmt.Fprintf(w, "%-16s loops=%2d  offlineSF[%5.2f %5.2f]  onlineSF[%5.2f %5.2f]\n",
			wl.Name, len(loops), minOff, maxOff, minOn, maxOn)
	}
	return nil
}
