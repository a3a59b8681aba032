package obs

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// Analysis is aidstat's view of one run record (trace.Record): the record's
// digest (per-thread busy/sched/sync time, chunks, per-loop summaries, the
// imbalance) plus provenance and the steals bucketed by topology tier.
type Analysis struct {
	trace.Digest
	// Engine and Policy echo the record's provenance.
	Engine, Policy string
	// TierCounts buckets every grant by provenance tier (Tier-indexed).
	TierCounts [3]int64
	// SharedGrants counts grants served from central (shared) pools —
	// provenance-free, charged to TierHome in TierCounts.
	SharedGrants int64
	// StealMatrix[thief][origin] counts chunks a thread homed on cluster
	// `thief` claimed from cluster `origin`'s shard (shared-pool grants are
	// excluded; the diagonal holds home-shard grants).
	StealMatrix [][]int64
}

// Analyze digests a run record. The record must be valid (decoded records
// are); the platform's cluster-distance matrix drives the tier bucketing.
func Analyze(rec *trace.Record) (*Analysis, error) {
	pl, err := rec.Platform.Platform()
	if err != nil {
		return nil, fmt.Errorf("obs: rebuilding recorded platform: %w", err)
	}
	dist := pl.TypeDist()
	ntypes := len(pl.Clusters)
	a := &Analysis{
		Digest:      rec.Digest(),
		Engine:      rec.Engine,
		Policy:      rec.Policy,
		StealMatrix: make([][]int64, ntypes),
	}
	for t := range a.StealMatrix {
		a.StealMatrix[t] = make([]int64, ntypes)
	}
	for _, ev := range rec.Events {
		if ev.Retire {
			continue
		}
		a.TierCounts[Tier(dist, int(ev.Shard), int(ev.Origin))]++
		if ev.Origin < 0 {
			a.SharedGrants++
		} else if int(ev.Shard) < ntypes && int(ev.Origin) < ntypes {
			a.StealMatrix[ev.Shard][ev.Origin]++
		}
	}
	return a, nil
}

// ganttWidth is the character width of the per-thread activity strips.
const ganttWidth = 60

// WriteReport renders the analysis as the aidstat text report: run
// provenance, a per-thread utilization table with a Gantt strip (one letter
// per loop, '.' for idle), the imbalance figure, the steal matrix by tier,
// and per-loop phase/SF summaries. The strips are rebuilt from the
// record's event stream, so the report needs the record the analysis came
// from.
func WriteReport(w io.Writer, rec *trace.Record, a *Analysis) error {
	e := &errWriter{w: w}
	e.printf("engine=%s nthreads=%d binding=%s", a.Engine, len(a.Threads), rec.Binding)
	if a.Policy != "" {
		e.printf(" policy=%s", a.Policy)
	}
	e.printf(" span=%.3fms\n\n", float64(a.SpanNs)/1e6)

	strips := ganttStrips(rec, a)
	e.printf("%-4s %-4s %12s %7s %8s %9s  %s\n", "tid", "type", "busy-ms", "util%", "chunks", "iters", "activity")
	for _, th := range a.Threads {
		e.printf("t%-3d %-4d %12.3f %7.1f %8d %9d  %s\n",
			th.Tid, th.Type, float64(th.BusyNs)/1e6, th.UtilPct, th.Chunks, th.Iters, strips[th.Tid])
	}
	e.printf("\nimbalance: %.1f%% ((max−min)/max busy)\n", a.ImbalancePct)

	e.printf("\nsteals by tier: home=%d same-pkg=%d cross-pkg=%d (shared-pool grants: %d)\n",
		a.TierCounts[TierHome], a.TierCounts[TierSamePkg], a.TierCounts[TierCross], a.SharedGrants)
	if len(a.StealMatrix) > 1 {
		e.printf("steal matrix (rows: thief home type, cols: origin shard):\n")
		e.printf("%8s", "")
		for t := range a.StealMatrix {
			e.printf(" %8s", fmt.Sprintf("type%d", t))
		}
		e.printf("\n")
		for t, row := range a.StealMatrix {
			e.printf("%8s", fmt.Sprintf("type%d", t))
			for _, v := range row {
				e.printf(" %8d", v)
			}
			e.printf("\n")
		}
	}

	for _, ls := range a.Loops {
		e.printf("\nloop %q (%s): %d/%d iters in %d chunks, [%.3f, %.3f]ms\n",
			ls.Name, ls.Scheduler, ls.Iters, ls.NI, ls.Chunks,
			float64(ls.StartNs-a.StartNs)/1e6, float64(ls.EndNs-a.StartNs)/1e6)
		if len(ls.PhaseKinds) > 0 {
			e.printf("  phases:")
			for _, k := range ls.PhaseKinds {
				e.printf(" %s×%d", k, ls.PhaseCounts[k])
			}
			e.printf("\n")
		}
		if ls.SFFirst != nil {
			e.printf("  SF: %v", ls.SFFirst)
			if ls.SFSamples > 1 {
				e.printf(" → %v (%d samples)", ls.SFLast, ls.SFSamples)
			}
			e.printf("\n")
		}
	}
	return e.err
}

// ganttStrips renders one ganttWidth-character activity strip per thread:
// the loop's letter ('A' + loop index, wrapping through the alphabet) where
// the thread was executing a chunk, '.' where it was not.
func ganttStrips(rec *trace.Record, a *Analysis) []string {
	strips := make([][]byte, len(a.Threads))
	for tid := range strips {
		strips[tid] = make([]byte, ganttWidth)
		for i := range strips[tid] {
			strips[tid][i] = '.'
		}
	}
	if a.SpanNs <= 0 {
		out := make([]string, len(strips))
		for tid := range strips {
			out[tid] = string(strips[tid])
		}
		return out
	}
	scale := float64(ganttWidth) / float64(a.SpanNs)
	for _, ev := range rec.Events {
		if ev.Retire || int(ev.Tid) >= len(strips) {
			continue
		}
		lo := int(float64(ev.TimeNs-a.StartNs) * scale)
		hi := int(float64(ev.TimeNs+ev.ExecNs-a.StartNs) * scale)
		if lo < 0 {
			lo = 0
		}
		if hi >= ganttWidth {
			hi = ganttWidth - 1
		}
		letter := byte('A' + ev.Loop%26)
		for i := lo; i <= hi && i < ganttWidth; i++ {
			strips[ev.Tid][i] = letter
		}
	}
	out := make([]string, len(strips))
	for tid := range strips {
		out[tid] = string(strips[tid])
	}
	return out
}
