package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []gate `json:"end_to_end"`
	PerLayer []gate `json:"per_layer"`
}

// gate is one metric's direction and, for end-to-end metrics, the share of
// the old median by which it may get worse.
type gate struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// exactMetrics are simulated quantities: for one seed they repeat to the
// digit, so between two sets taken at the same seed any difference is a
// change in scheduler behaviour, whatever the bound says.
var exactMetrics = map[string]bool{
	"sim_figures/sim.aid_gmean_gain_pct":  true,
	"sim_figures/sim.sched_share":         true,
	"sim_figures/sim.virtual_p50_ms":      true,
	"sim_figures/sim.virtual_p90_ms":      true,
	"sim_figures/sim.virtual_slo_ok_frac": true,
}

// resultSet is every run of one side of a comparison.
type resultSet struct {
	seeds  map[uint64]bool
	values map[string][]float64 // by "workload/metric"
}

// loadSet reads a result file, or every *.json of a directory.
func loadSet(path string) (resultSet, error) {
	set := resultSet{seeds: map[uint64]bool{}, values: map[string][]float64{}}
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return set, err
	} else if st.IsDir() {
		var err error
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return set, err
		}
		sort.Strings(paths)
	}
	if len(paths) == 0 {
		return set, fmt.Errorf("%s: no result files", path)
	}
	for _, p := range paths {
		res, err := readResult(p)
		if err != nil {
			return set, err
		}
		set.seeds[res.Seed] = true
		for _, run := range res.Runs {
			for name, m := range run.Metrics {
				key := run.Workload + "/" + name
				set.values[key] = append(set.values[key], m.Value)
			}
		}
	}
	return set, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // the runs spread wider than the bound
	ungated    = "-"          // per-layer: reported, never gated
)

// judge compares one metric of one workload: old and new are the runs'
// values. worse is the relative change of the median in the harmful
// direction (negative: better); noise the wider of the two sides'
// interquartile spreads, as a share of the old median.
func judge(old, new []float64, better string, bound float64, exact bool) (verdict string, worse, noise float64) {
	mo, mn := median(old), median(new)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if mo != 0 {
		worse = sign * (mn - mo) / math.Abs(mo)
		noise = spread(old)
		if s := spread(new) * math.Abs(mn) / math.Abs(mo); s > noise {
			noise = s
		}
	} else if mn != 0 {
		worse = sign * mn // no base to take a share of
	}
	if exact {
		switch {
		case allEqual(old, new):
			return unchanged, worse, noise
		case worse < 0:
			return improved, worse, noise
		default:
			return regressed, worse, noise
		}
	}
	// Every new run better than every old run decides it whatever the spread.
	if separated(old, new, sign) {
		return improved, worse, noise
	}
	if noise > bound {
		return unresolved, worse, noise
	}
	switch {
	case worse > bound:
		return regressed, worse, noise
	case worse < -noise && worse < 0:
		return improved, worse, noise
	}
	return unchanged, worse, noise
}

func allEqual(a, b []float64) bool {
	for _, x := range append(append([]float64{}, a...), b...) {
		if x != a[0] {
			return false
		}
	}
	return true
}

// separated reports whether every new value is strictly better than every
// old one (sign +1: lower is better).
func separated(old, new []float64, sign float64) bool {
	for _, n := range new {
		for _, o := range old {
			if sign*(n-o) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareSets prints one line per metric and workload and fails when any
// gated metric regressed or could not be resolved.
func compareSets(w io.Writer, specPath, oldPath, newPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	old, err := loadSet(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadSet(newPath)
	if err != nil {
		return err
	}
	sameSeeds := len(old.seeds) == len(cur.seeds)
	for s := range old.seeds {
		sameSeeds = sameSeeds && cur.seeds[s]
	}
	counts := map[string]int{}
	fmt.Fprintf(w, "%-14s %-34s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloadTable {
		for _, g := range append(append([]gate{}, spec.EndToEnd...), spec.PerLayer...) {
			key := wl.name + "/" + g.Name
			o, n := old.values[key], cur.values[key]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			exact := sameSeeds && exactMetrics[key]
			bound := 0.0
			if g.Bound != nil {
				bound = *g.Bound
			}
			verdict, worse, noise := judge(o, n, g.Better, bound, exact)
			boundText := fmt.Sprintf("%.3f", bound)
			if g.Bound == nil && !exact {
				verdict, boundText = ungated, "-"
			} else if exact {
				boundText = "exact"
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-14s %-34s %14.6g %14.6g %+8.2f%% %7.2f%% %7s  %s (n=%d,%d)\n",
				wl.name, g.Name, median(o), median(n), worse*100, noise*100, boundText, verdict, len(o), len(n))
		}
	}
	fmt.Fprintf(w, "gated: %d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed]+counts[unresolved] > 0 {
		return fmt.Errorf("%d regressed, %d unresolved", counts[regressed], counts[unresolved])
	}
	return nil
}
