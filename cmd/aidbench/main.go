// aidbench regenerates the paper's evaluation tables and figures on the
// modeled platforms, the one place every simulated number is printed.
//
// Usage:
//
//	aidbench -exp fig1              # Fig 1: EP traces, static, 2B-2S vs 4S
//	aidbench -exp fig2              # Fig 2: per-loop offline SF, BT and CG
//	aidbench -exp fig4              # Fig 4: EP traces, AID-static vs AID-hybrid(80%)
//	aidbench -exp fig6              # Fig 6: 21 apps x 7 schemes, Platform A
//	aidbench -exp fig7              # Fig 7: same on Platform B
//	aidbench -exp table2            # Table 2: AID gains (runs fig6 + fig7)
//	aidbench -exp fig8              # Fig 8: chunk sensitivity sweep
//	aidbench -exp fig9              # Fig 9a/9b: offline-SF comparison
//	aidbench -exp fig9c             # Fig 9c: blackscholes SF series
//	aidbench -exp guided            # guided vs static/dynamic summary
//	aidbench -exp hybridpct         # AID-hybrid percentage sweep
//	aidbench -exp zoo               # platform zoo: makespan + energy per preset
//	aidbench -exp ablation          # each AID design choice taken away, A and B
//	aidbench -exp all               # everything above, in order (fig6 and
//	                                # fig7 are run once, table2 reuses them)
//
// Add -csv to emit comma-separated values for fig6/fig7.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/amp"
	"repro/internal/exps"
	"repro/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(experiments, "|")+"|all")
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

// experiments are the -exp names in paper order, the order -exp all prints.
var experiments = []string{"fig1", "fig2", "fig4", "fig6", "fig7", "table2", "fig8", "fig9", "fig9c", "guided", "hybridpct", "zoo", "ablation"}

func runExp(w io.Writer, exp string, csv bool, sw sweeps) error {
	switch exp {
	case "fig1":
		return traces(w, exps.RunFig1)
	case "fig2":
		series, err := exps.RunFig2()
		for _, s := range series {
			fmt.Fprintln(w, s.Render())
		}
		return err
	case "fig4":
		return traces(w, exps.RunFig4)
	case "fig6":
		return fig(w, sw.a, csv)
	case "fig7":
		return fig(w, sw.b, csv)
	case "table2":
		return show(w, func() (exps.Table2, error) {
			fa, errA := sw.a()
			fb, errB := sw.b()
			return exps.RunTable2(fa, fb), errors.Join(errA, errB)
		})
	case "fig8":
		return show(w, exps.RunFig8)
	case "fig9":
		return onAB(w, exps.RunFig9)
	case "fig9c":
		return show(w, func() (exps.Fig9cResult, error) { return exps.RunFig9c(100) })
	case "guided":
		return onAB(w, exps.RunGuided)
	case "hybridpct":
		return show(w, func() (exps.HybridPctResult, error) {
			return exps.RunHybridPct(amp.PlatformA(), workloads.All())
		})
	case "zoo":
		return show(w, exps.RunZoo)
	case "ablation":
		return onAB(w, exps.RunAblation)
	case "all":
		for _, e := range experiments {
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

// show prints the table run returns.
func show[T interface{ Render() string }](w io.Writer, run func() (T, error)) error {
	t, err := run()
	if err != nil {
		return err
	}
	fmt.Fprint(w, t.Render())
	return nil
}

// onAB prints run's table for Platform A, then B, each with a blank line after.
func onAB[T interface{ Render() string }](w io.Writer, run func(*amp.Platform) (T, error)) error {
	for _, pl := range []*amp.Platform{amp.PlatformA(), amp.PlatformB()} {
		if err := show(w, func() (T, error) { return run(pl) }); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// traces prints Fig. 1's or Fig. 4's two traces, each with a blank line after.
func traces(w io.Writer, run func() (a, b exps.TraceResult, err error)) error {
	a, b, err := run()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, a.Render())
	fmt.Fprintln(w, b.Render())
	return nil
}

func fig(w io.Writer, sweep func() (exps.FigResult, error), csv bool) error {
	if !csv {
		return show(w, sweep)
	}
	f, err := sweep()
	if err == nil {
		fmt.Fprint(w, f.CSV())
	}
	return err
}
