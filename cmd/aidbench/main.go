// aidbench regenerates the paper's evaluation tables and figures on the
// modeled platforms.
//
// Usage:
//
//	aidbench -exp fig6              # Fig 6: 21 apps x 7 schemes, Platform A
//	aidbench -exp fig7              # Fig 7: same on Platform B
//	aidbench -exp table2            # Table 2: AID gains (runs fig6 + fig7)
//	aidbench -exp fig8              # Fig 8: chunk sensitivity sweep
//	aidbench -exp fig9              # Fig 9a/9b: offline-SF comparison
//	aidbench -exp fig9c             # Fig 9c: blackscholes SF series
//	aidbench -exp guided            # guided vs static/dynamic summary
//	aidbench -exp hybridpct         # AID-hybrid percentage sweep
//	aidbench -exp zoo               # platform zoo: makespan + energy per preset
//	aidbench -exp all               # everything above, in order (fig6 and
//	                                # fig7 are run once, table2 reuses them)
//
// Add -csv to emit comma-separated values for fig6/fig7.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/amp"
	"repro/internal/exps"
	"repro/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: fig6|fig7|table2|fig8|fig9|fig9c|guided|hybridpct|zoo|all")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table (fig6/fig7)")
	flag.Parse()

	if err := run(os.Stdout, *exp, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "aidbench:", err)
		os.Exit(1)
	}
}

// sweeps are the Fig. 6 (Platform A) and Fig. 7 (Platform B) sweeps of one
// invocation, each run when first asked for and then kept: -exp all prints
// three sections from the two, since Table 2 is computed from both.
type sweeps struct {
	a, b func() (exps.FigResult, error)
}

func run(w io.Writer, exp string, csv bool) error {
	return runExp(w, exp, csv, sweeps{
		a: sync.OnceValues(func() (exps.FigResult, error) { return exps.RunFig6(amp.PlatformA()) }),
		b: sync.OnceValues(func() (exps.FigResult, error) { return exps.RunFig6(amp.PlatformB()) }),
	})
}

func runExp(w io.Writer, exp string, csv bool, sw sweeps) error {
	switch exp {
	case "fig6":
		return fig(w, sw.a, csv)
	case "fig7":
		return fig(w, sw.b, csv)
	case "table2":
		return table2(w, sw)
	case "fig8":
		f, err := exps.RunFig8()
		if err != nil {
			return err
		}
		fmt.Fprint(w, f.Render())
		return nil
	case "fig9":
		for _, pl := range []*amp.Platform{amp.PlatformA(), amp.PlatformB()} {
			f, err := exps.RunFig9(pl)
			if err != nil {
				return err
			}
			fmt.Fprint(w, f.Render())
			fmt.Fprintln(w)
		}
		return nil
	case "fig9c":
		f, err := exps.RunFig9c(100)
		if err != nil {
			return err
		}
		fmt.Fprint(w, f.Render())
		return nil
	case "guided":
		for _, pl := range []*amp.Platform{amp.PlatformA(), amp.PlatformB()} {
			g, err := exps.RunGuided(pl)
			if err != nil {
				return err
			}
			fmt.Fprint(w, g.Render())
			fmt.Fprintln(w)
		}
		return nil
	case "hybridpct":
		h, err := exps.RunHybridPct(amp.PlatformA(), workloads.All())
		if err != nil {
			return err
		}
		fmt.Fprint(w, h.Render())
		return nil
	case "zoo":
		z, err := exps.RunZoo()
		if err != nil {
			return err
		}
		fmt.Fprint(w, z.Render())
		return nil
	case "all":
		for _, e := range []string{"fig6", "fig7", "table2", "fig8", "fig9", "fig9c", "guided", "hybridpct", "zoo"} {
			fmt.Fprintf(w, "==== %s ====\n", e)
			if err := runExp(w, e, csv, sw); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func fig(w io.Writer, sweep func() (exps.FigResult, error), csv bool) error {
	f, err := sweep()
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprint(w, f.CSV())
	} else {
		fmt.Fprint(w, f.Render())
	}
	return nil
}

func table2(w io.Writer, sw sweeps) error {
	fa, err := sw.a()
	if err != nil {
		return err
	}
	fb, err := sw.b()
	if err != nil {
		return err
	}
	fmt.Fprint(w, exps.RunTable2(fa, fb).Render())
	return nil
}
