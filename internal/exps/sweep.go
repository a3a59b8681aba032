package exps

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/amp"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// sweep runs cell(0) … cell(n-1) and returns their results by index: the one
// way an experiment walks its grid (see "How a sweep runs" in the package
// comment). The cells are claimed one at a time off a shared counter by
// workers(n) workers, of which the caller is one, so with one worker
// (GOMAXPROCS=1, or n <= 1) the sweep is a plain loop on the caller's
// goroutine. sweep returns when every worker has, with no goroutine left.
//
// The error is that of the lowest failing index, whichever cell failed first
// on the clock. A failure stops further claims, and that keeps the rule:
// cells are claimed in ascending order, so every cell below a failed one was
// claimed before it and runs to its end.
func sweep[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if out[i], errs[i] = cell(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := workers(n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// workers is the number of goroutines a sweep of n cells runs on:
// min(GOMAXPROCS, max(NumCPU, 2), n). A cell never blocks, so a worker beyond
// the CPUs only takes turns with the others, and GOMAXPROCS may be set above
// NumCPU. The floor of 2 keeps a sweep concurrent, and so checked by the race
// detector, on a one-CPU host.
func workers(n int) int {
	return min(runtime.GOMAXPROCS(0), max(runtime.NumCPU(), 2), n)
}

// runApp executes one workload under one scheme and returns its virtual
// completion time.
func runApp(pl *amp.Platform, w workloads.Workload, s Scheme) (float64, error) {
	f := s.factory
	if f == nil {
		f = s.Sched.Factory()
	}
	res, err := sim.RunProgram(sim.Config{
		Platform: pl,
		NThreads: pl.NumCores(),
		Binding:  s.Binding,
		Factory:  f,
	}, w.Program)
	if err != nil {
		return 0, fmt.Errorf("exps: %s under %s: %w", w.Name, s.Label, err)
	}
	return float64(res.TotalNs), nil
}

// runGrid is the apps x schemes grid of the evaluation, one cell per pair:
// ns[a][s] is the virtual completion time of apps[a] under schemes[s] on pl.
func runGrid(pl *amp.Platform, apps []workloads.Workload, schemes []Scheme) ([][]float64, error) {
	cols := len(schemes)
	flat, err := sweep(len(apps)*cols, func(i int) (float64, error) {
		return runApp(pl, apps[i/cols], schemes[i%cols])
	})
	if err != nil {
		return nil, err
	}
	ns := make([][]float64, len(apps))
	for a := range ns {
		ns[a] = flat[a*cols : (a+1)*cols]
	}
	return ns, nil
}

// appsNamed looks the named workloads up, in order, in one set of models:
// workloads.ByName would build all of them for every name.
func appsNamed(names []string) ([]workloads.Workload, error) {
	all := workloads.All()
	apps := make([]workloads.Workload, len(names))
	for i, name := range names {
		at := slices.IndexFunc(all, func(w workloads.Workload) bool { return w.Name == name })
		if at < 0 {
			return nil, fmt.Errorf("exps: workload %s missing", name)
		}
		apps[i] = all[at]
	}
	return apps, nil
}
