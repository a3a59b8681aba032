package main

// metricDef names one metric of the benchmark. The two tables below are the
// single source of the names: BENCHMARK.json repeats them (a test holds the
// two together), every untraced run reports exactly the end-to-end names and
// every traced run exactly the per-layer names.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the numbers a user of the system sees. Every workload reports
// every one; what an "operation" is per workload is in the README.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"iters_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"slo_ok_frac", "frac", "higher"},
	{"alloc_kb_per_op", "kB", "lower"},
}

// perLayer are the single-layer numbers of the traced pass; the prefix is
// the package measured. A metric a workload does not exercise reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"pool.claim_ns.strict", "ns", "lower"},
		{"pool.claim_ns.credit", "ns", "lower"},
		{"pool.claim_ns.contended", "ns", "lower"},
		{"pool.foreign_frac", "frac", "lower"},
	}
	for _, fam := range []metricDef{
		{"core.next_ns.", "ns", "lower"},
		{"core.self_ns.", "ns", "lower"},
		{"core.pool_accesses_per_chunk.", "count", "lower"},
		{"core.new_us.", "us", "lower"},
	} {
		for _, s := range ladderSchedules {
			defs = append(defs, metricDef{fam.Name + s.tag, fam.Unit, fam.Better})
		}
	}
	defs = append(defs,
		metricDef{"rt.chunk_ns", "ns", "lower"},
		metricDef{"rt.self_ns", "ns", "lower"},
		metricDef{"rt.ladder_residual_ns", "ns", "lower"},
	)
	for _, w := range []closedSpec{fineChunk, coarseChunk} {
		for _, s := range w.scheds {
			defs = append(defs, metricDef{"rt.iters_per_s." + s.tag, "1/s", "higher"})
		}
	}
	return append(defs,
		metricDef{"rt.aid_vs_static", "ratio", "higher"},
		metricDef{"rt.sf_est", "ratio", "higher"},
		metricDef{"rt.sched_share", "frac", "lower"},
		metricDef{"rt.idle_share", "frac", "lower"},
		metricDef{"rt.steal_frac", "frac", "lower"},
		metricDef{"rt.submit_us", "us", "lower"},
		metricDef{"rt.admit_to_first_us", "us", "lower"},
		metricDef{"rt.first_to_done_ms", "ms", "lower"},
		metricDef{"rt.inflight_max", "count", "lower"},
		metricDef{"rt.p95_ms", "ms", "lower"},
		metricDef{"rt.p99_ms", "ms", "lower"},
		metricDef{"rt.new_registry_ms", "ms", "lower"},
		metricDef{"fair.pick_ns", "ns", "lower"},
		metricDef{"fair.gold_bronze_p50_ratio", "ratio", "lower"},
		metricDef{"arrival.gap_ns", "ns", "lower"},
		metricDef{"arrival.late_p99_ms", "ms", "lower"},
		metricDef{"sim.host_ns_per_chunk.single", "ns", "lower"},
		metricDef{"sim.host_ns_per_chunk.multi", "ns", "lower"},
		metricDef{"sim.sched_share", "frac", "lower"},
		metricDef{"sim.figures_s", "s", "lower"},
		metricDef{"sim.virtual_serve_s", "s", "lower"},
		metricDef{"sim.aid_gmean_gain_pct", "%", "higher"},
		metricDef{"sim.virtual_p50_ms", "ms", "lower"},
		metricDef{"sim.virtual_p90_ms", "ms", "lower"},
		metricDef{"sim.virtual_slo_ok_frac", "frac", "higher"},
		metricDef{"trace.encode_mb_s", "MB/s", "higher"},
		metricDef{"trace.decode_mb_s", "MB/s", "higher"},
		metricDef{"trace.bytes_per_event", "B", "lower"},
		metricDef{"replay.exact_ms", "ms", "lower"},
		metricDef{"obs.metrics_overhead_pct", "%", "lower"},
		metricDef{"obs.snapshot_us", "us", "lower"},
		metricDef{"stats.hist_add_ns", "ns", "lower"},
		metricDef{"amp.load_us", "us", "lower"},
		metricDef{"bench.body_ns.fine", "ns", "lower"},
		metricDef{"bench.body_ns.serve", "ns", "lower"},
		metricDef{"bench.body_ns.coarse", "ns", "lower"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
	)
}

// metricSet is what one run reports, keyed by metric name.
type metricSet map[string]metric

// complete returns m restricted to defs, in full: a name m lacks reads 0
// in its declared unit, and a name outside defs is an error in the caller
// that the tests catch.
func complete(m metricSet, defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			v = metric{Unit: d.Unit}
		}
		out[d.Name] = v
	}
	return out
}
