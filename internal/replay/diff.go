package replay

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Metric is one compared quantity of a run diff.
type Metric struct {
	// Name identifies the quantity (e.g. "makespan_ns", "sf[ep-main][0]").
	Name string
	// A and B are the baseline's and candidate's values.
	A, B float64
	// DeltaPct is the candidate's relative change in percent (positive =
	// larger). NaN when the baseline is zero and the candidate is not.
	DeltaPct float64
	// Regression marks a change beyond the report's tolerance in the
	// harmful direction (larger for cost metrics, either way for SF drift).
	Regression bool
}

// Report is the outcome of diffing two runs.
type Report struct {
	// TolerancePct is the relative change (percent) beyond which a metric
	// counts as a regression.
	TolerancePct float64
	// Metrics lists every compared quantity, cost metrics first.
	Metrics []Metric
	// Regressions counts the flagged metrics.
	Regressions int
}

// Diff compares two runs — a baseline and a candidate — into a regression
// report over their digests (trace.Record.Digest). Cost metrics (makespan,
// pool traffic, chunk count, aggregate busy and Sched time, imbalance)
// regress when the candidate exceeds the baseline by more than tolPct
// percent; per-loop final SF estimates regress
// on drift beyond tolPct in either direction (a shifted estimate signals a
// changed sampling pipeline even when the makespan survives). Two identical
// runs — e.g. two exact replays of one record — always produce zero
// regressions.
func Diff(a, b *trace.Record, tolPct float64) *Report {
	da, db := a.Digest(), b.Digest()
	ta, tb := da.Total(), db.Total()
	rep := &Report{TolerancePct: tolPct}

	costMetric := func(name string, va, vb int64) {
		m := Metric{Name: name, A: float64(va), B: float64(vb), DeltaPct: deltaPct(float64(va), float64(vb))}
		m.Regression = vb > va && exceeds(m.DeltaPct, tolPct)
		rep.Metrics = append(rep.Metrics, m)
	}
	costMetric("makespan_ns", a.MakespanNs, b.MakespanNs)
	costMetric("pool_accesses", ta.PoolAccesses, tb.PoolAccesses)
	costMetric("chunks", ta.Chunks, tb.Chunks)
	costMetric("running_ns_total", ta.BusyNs, tb.BusyNs)
	if da.Timed && db.Timed {
		costMetric("sched_ns_total", ta.SchedNs, tb.SchedNs)
		// Sync time is informational only: where the idle time sits is
		// already judged by makespan and imbalance — a schedule can
		// lengthen the barrier wait in absolute terms while finishing
		// sooner, which is an improvement, not a regression.
		va, vb := float64(ta.SyncNs), float64(tb.SyncNs)
		rep.Metrics = append(rep.Metrics, Metric{Name: "sync_ns_total", A: va, B: vb, DeltaPct: deltaPct(va, vb)})
	}
	// Imbalance is already a percentage; compare in absolute points.
	ia, ib := da.ImbalancePct, db.ImbalancePct
	im := Metric{Name: "imbalance_pct", A: ia, B: ib, DeltaPct: ib - ia}
	im.Regression = ib-ia > tolPct
	rep.Metrics = append(rep.Metrics, im)

	// SF trajectory: final estimate per loop (per core type) plus sample
	// count. Only loops present in both runs are comparable; names are
	// sorted so the report is reproducible (map order is not).
	finalA, samplesA := finalSF(da)
	finalB, samplesB := finalSF(db)
	names := make([]string, 0, len(finalA))
	for name := range finalA {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sfA := finalA[name]
		sfB, ok := finalB[name]
		if !ok {
			continue
		}
		for t := 0; t < len(sfA) && t < len(sfB); t++ {
			m := Metric{Name: fmt.Sprintf("sf[%s][%d]", name, t), A: sfA[t], B: sfB[t],
				DeltaPct: deltaPct(sfA[t], sfB[t])}
			m.Regression = exceeds(m.DeltaPct, tolPct)
			rep.Metrics = append(rep.Metrics, m)
		}
		na, nb := float64(samplesA[name]), float64(samplesB[name])
		rep.Metrics = append(rep.Metrics, Metric{Name: fmt.Sprintf("sf_samples[%s]", name),
			A: na, B: nb, DeltaPct: deltaPct(na, nb)})
	}
	for _, m := range rep.Metrics {
		if m.Regression {
			rep.Regressions++
		}
	}
	return rep
}

// finalSF keys each estimating loop's last SF table and sample count by
// loop name; loops that share a name pool their samples, and the later
// loop's table wins.
func finalSF(d trace.Digest) (map[string][]float64, map[string]int) {
	final, samples := map[string][]float64{}, map[string]int{}
	for _, l := range d.Loops {
		if l.SFSamples > 0 {
			final[l.Name] = l.SFLast
			samples[l.Name] += l.SFSamples
		}
	}
	return final, samples
}

func deltaPct(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.NaN()
	}
	return 100 * (b - a) / a
}

// exceeds reports whether a relative delta is beyond tolerance in
// magnitude; a NaN delta (zero baseline, non-zero candidate) always counts.
func exceeds(deltaPct, tolPct float64) bool {
	return math.IsNaN(deltaPct) || math.Abs(deltaPct) > tolPct
}

// String renders the report as an aligned table plus a verdict line.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %16s %16s %10s\n", "metric", "baseline", "candidate", "delta")
	for _, m := range r.Metrics {
		flag := ""
		if m.Regression {
			flag = "  << REGRESSION"
		}
		delta := fmt.Sprintf("%+.2f%%", m.DeltaPct)
		if math.IsNaN(m.DeltaPct) {
			delta = "new"
		}
		fmt.Fprintf(&b, "%-24s %16.6g %16.6g %10s%s\n", m.Name, m.A, m.B, delta, flag)
	}
	if r.Regressions == 0 {
		fmt.Fprintf(&b, "no regressions (tolerance %.1f%%)\n", r.TolerancePct)
	} else {
		fmt.Fprintf(&b, "%d regression(s) beyond %.1f%% tolerance\n", r.Regressions, r.TolerancePct)
	}
	return b.String()
}
