package obs

import (
	"fmt"
	"io"
)

// tierLabels are the Prometheus label values of the provenance tiers,
// indexed like the Tier constants.
var tierLabels = [...]string{"home", "same_pkg", "cross_pkg"}

// errWriter folds the error handling of a sequence of writes: after the
// first failure every printf is a no-op and the error is returned once.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). prefix namespaces the metric families ("" selects
// "aid"); the families are counters except the worker gauge:
//
//	<p>_chunks_total, <p>_iters_total
//	<p>_steals_total{tier="home|same_pkg|cross_pkg"}
//	<p>_credit_claimed_iters_total
//	<p>_busy_ns_total, <p>_sched_ns_total, <p>_idle_ns_total
//	<p>_occupancy_ns_total{type="<cluster>"}
//	<p>_workers
//
// Counter semantics hold between scrapes of the same live source (obs
// invariant 4: per-counter monotone). Output order is fixed, so identical
// snapshots render byte-identically.
func WritePrometheus(w io.Writer, prefix string, s Snapshot) error {
	if prefix == "" {
		prefix = "aid"
	}
	e := &errWriter{w: w}
	counter := func(name, help string, v int64) {
		e.printf("# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			prefix, name, help, prefix, name, prefix, name, v)
	}
	counter("chunks_total", "Chunk grants served.", s.Chunks)
	counter("iters_total", "Iterations executed.", s.Iters)
	e.printf("# HELP %s_steals_total Chunk grants by provenance tier.\n# TYPE %s_steals_total counter\n", prefix, prefix)
	for tier, v := range [...]int64{s.StealsHome, s.StealsSamePkg, s.StealsCross} {
		e.printf("%s_steals_total{tier=%q} %d\n", prefix, tierLabels[tier], v)
	}
	counter("credit_claimed_iters_total", "Iterations claimed through the batched credit path.", s.CreditClaimed)
	counter("busy_ns_total", "Worker time executing chunks.", s.BusyNs)
	counter("sched_ns_total", "Worker time inside the runtime system.", s.SchedNs)
	counter("idle_ns_total", "Worker time without work.", s.IdleNs)
	e.printf("# HELP %s_occupancy_ns_total Busy time by home core type.\n# TYPE %s_occupancy_ns_total counter\n", prefix, prefix)
	for t, v := range s.OccupancyNs {
		e.printf("%s_occupancy_ns_total{type=\"%d\"} %d\n", prefix, t, v)
	}
	e.printf("# HELP %s_workers Worker cells in the snapshot.\n# TYPE %s_workers gauge\n%s_workers %d\n",
		prefix, prefix, prefix, len(s.Workers))
	return e.err
}
