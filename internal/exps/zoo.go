package exps

import (
	"fmt"
	"strings"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
)

// ZooRow is one (platform, scheme) cell of the platform-zoo sweep: the
// virtual makespan of a fixed synthetic loop and the modeled energy spent
// by the fleet over it (active power while working, idle power while
// waiting on the barrier — per-cluster figures from the platform's energy
// model, summed).
type ZooRow struct {
	Platform   string
	Scheme     string
	MakespanNs float64
	EnergyJ    float64
}

// ZooResult is the outcome of RunZoo: rows in platform-major order, the
// platforms in registry order.
type ZooResult struct {
	Rows []ZooRow
}

// zooSchemes are the schedules the zoo sweep exercises: the static
// baseline, plain dynamic self-scheduling, and the AID-dynamic treatment —
// the three regimes whose relative cost the topology-aware overhead model
// (per-shard contention, provenance-tiered locality, nearest-victim steals)
// is supposed to separate.
func zooSchemes() []Scheme {
	return []Scheme{
		{Label: "static", Sched: core.Schedule{Kind: core.KindStatic}, Binding: amp.BindBS},
		{Label: "dynamic", Sched: core.Schedule{Kind: core.KindDynamic, Chunk: 8}, Binding: amp.BindBS},
		{Label: "aid-dynamic", Sched: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 1, Major: 5}, Binding: amp.BindBS},
	}
}

// RunZoo sweeps one fixed loop over every named platform in the registry
// under the zoo schemes and reports makespan and energy per cell. The loop
// is moderately irregular (linear cost ramp), so schedulers that charge
// contention or locality differently across the zoo's topologies produce
// visibly different rows.
func RunZoo() (ZooResult, error) {
	names, schemes := amp.Names(), zooSchemes()
	platforms := make([]*amp.Platform, len(names))
	for i, name := range names {
		pl, ok := amp.Lookup(name)
		if !ok {
			return ZooResult{}, fmt.Errorf("exps: zoo platform %q not registered", name)
		}
		platforms[i] = pl
	}
	spec := sim.LoopSpec{
		Name:    "zoo",
		NI:      40_000,
		Profile: amp.Profile{ILP: 0.6, MemIntensity: 0.2},
		Cost:    sim.LinearCost{Base: 20_000, Slope: 1.5},
	}
	rows, err := sweep(len(names)*len(schemes), func(i int) (ZooRow, error) {
		p, s := i/len(schemes), schemes[i%len(schemes)]
		pl := platforms[p]
		res, err := sim.RunLoop(sim.Config{
			Platform: pl,
			NThreads: pl.NumCores(),
			Binding:  s.Binding,
			Factory:  s.Sched.Factory(),
		}, spec, 0)
		if err != nil {
			return ZooRow{}, fmt.Errorf("exps: zoo %s under %s: %w", names[p], s.Label, err)
		}
		return ZooRow{
			Platform:   names[p],
			Scheme:     s.Label,
			MakespanNs: float64(res.End - res.Start),
			EnergyJ:    res.EnergyJ,
		}, nil
	})
	return ZooResult{Rows: rows}, err
}

// Render prints the sweep as an aligned table.
func (z ZooResult) Render() string {
	var b strings.Builder
	b.WriteString("Platform zoo: makespan and modeled energy per schedule\n")
	fmt.Fprintf(&b, "%-10s %-12s %14s %12s\n", "platform", "scheme", "makespan(ms)", "energy(J)")
	for _, r := range z.Rows {
		fmt.Fprintf(&b, "%-10s %-12s %14.3f %12.4f\n", r.Platform, r.Scheme, r.MakespanNs/1e6, r.EnergyJ)
	}
	return b.String()
}
