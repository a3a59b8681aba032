package obs

import (
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
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

// summaryQuantiles are the quantile labels WriteLatencySummary emits.
var summaryQuantiles = [...]struct {
	label string
	pct   float64
}{{"0.5", 50}, {"0.95", 95}, {"0.99", 99}}

// WriteLatencySummary renders one histogram as a Prometheus summary family
// named name (e.g. "aidserve_latency_ns") with a class label — the per-QoS-
// class latency export. The quantiles come from the histogram's log-bucketed
// percentiles, so a scrape and the end-of-run report read the same numbers.
// Emit the whole family through consecutive calls with writeHeader true on
// the first only (Prometheus allows one TYPE line per family).
func WriteLatencySummary(w io.Writer, name, class string, h *stats.Histogram, writeHeader bool) error {
	e := &errWriter{w: w}
	if writeHeader {
		e.printf("# HELP %s Request latency by QoS class.\n# TYPE %s summary\n", name, name)
	}
	for _, q := range summaryQuantiles {
		v, err := h.Percentile(q.pct)
		if err != nil {
			v = math.NaN() // empty class: NaN quantiles, per Prometheus convention
		}
		e.printf("%s{class=%q,quantile=%q} %g\n", name, class, q.label, v)
	}
	e.printf("%s_sum{class=%q} %g\n", name, class, h.Sum())
	e.printf("%s_count{class=%q} %d\n", name, class, h.Count())
	return e.err
}
