package exps

import (
	"fmt"
	"strings"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/workloads"
)

// ablationColumns are the columns of the ablation table: an application's
// completion time under x, a design choice taken away or its alternative,
// over that under y. Above 1, the choice wins.
var ablationColumns = []struct {
	name, legend string
	x, y         Scheme
}{
	{"tail-switch", "AID-dynamic 1,30 without the Fig. 5 end-of-loop switch / with it",
		aidDynamic(30, true, false), aidDynamic(30, false, false)},
	{"sm-clamp", "AID-dynamic 1,10 without the per-phase bound on SM / with it",
		aidDynamic(10, false, true), aidDynamic(10, false, false)},
	{"sampling-chunk", "AID-static with sampling chunk 256 / with chunk 1",
		bs(core.Schedule{Kind: core.KindAIDStatic, Chunk: 256}), bs(core.Schedule{Kind: core.KindAIDStatic})},
	{"work-steal", "work-steal 64 (§4.3) / AID-static 1",
		bs(core.Schedule{Kind: core.KindWorkSteal, Chunk: 64}), bs(core.Schedule{Kind: core.KindAIDStatic})},
}

// bs is the scheme that runs sched under the BS binding, labeled as sched.
func bs(sched core.Schedule) Scheme {
	return Scheme{Label: sched.String(), Sched: sched, Binding: amp.BindBS}
}

// aidDynamic is AID-dynamic 1,major, with the named mechanisms switched off
// (AIDDynamic.SetAblation, which no schedule text can select).
func aidDynamic(major int64, noTail, noSMClamp bool) Scheme {
	s := bs(core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: major})
	if noTail || noSMClamp {
		s.Label += " (ablated)"
		s.factory = func(info core.LoopInfo) (core.Scheduler, error) {
			a, err := core.NewAIDDynamic(info, 1, major)
			if err != nil {
				return nil, err
			}
			a.SetAblation(noTail, noSMClamp)
			return a, nil
		}
	}
	return s
}

// AblationResult is the ablation table on one platform.
type AblationResult struct {
	Platform string
	Apps     []string
	// Ratio[a][c] is Apps[a]'s cell in column c.
	Ratio [][]float64
}

// RunAblation runs every application under each column's schemes on one grid.
func RunAblation(pl *amp.Platform) (AblationResult, error) {
	var schemes []Scheme
	for _, c := range ablationColumns {
		schemes = append(schemes, c.x, c.y)
	}
	apps := workloads.All()
	ns, err := runGrid(pl, apps, schemes)
	if err != nil {
		return AblationResult{}, err
	}
	out := AblationResult{Platform: pl.Name}
	for a, w := range apps {
		t, row := ns[a], []float64{}
		for range ablationColumns {
			row = append(row, t[0]/t[1])
			t = t[2:]
		}
		out.Apps = append(out.Apps, w.Name)
		out.Ratio = append(out.Ratio, row)
	}
	return out, nil
}

// Render prints the table, four decimals a cell, and the columns' legend.
func (r AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: completion time X / Y, one pair per column (legend below); above 1, Y is faster — Platform %s\n", r.Platform)
	fmt.Fprintf(&b, "%-16s", "app")
	for _, c := range ablationColumns {
		fmt.Fprintf(&b, "%16s", c.name)
	}
	b.WriteByte('\n')
	for a, app := range r.Apps {
		fmt.Fprintf(&b, "%-16s", app)
		for _, v := range r.Ratio[a] {
			fmt.Fprintf(&b, "%16.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, c := range ablationColumns {
		fmt.Fprintf(&b, "%-16s%s\n", c.name, c.legend)
	}
	return b.String()
}
