package core

import (
	"testing"

	"repro/internal/amp"
)

// TestZooConformance runs the exactly-once conformance harness over every
// named platform in the zoo. Unlike the synthetic
// two-type mixes of TestSchedulerConformance, each platform contributes its
// real shape: cluster count, core counts per cluster under the BS binding,
// and the topology-distance matrix that drives nearest-victim stealing —
// so a preset whose matrix misroutes a steal, or whose shard cuts lose
// iterations, fails here by name.
func TestZooConformance(t *testing.T) {
	const ni = 10007 // prime: defeats every divisibility assumption
	for _, name := range amp.Names() {
		pl, ok := amp.Lookup(name)
		if !ok {
			t.Fatalf("zoo platform %q not registered", name)
		}
		nt := pl.NumCores()
		info := LoopInfo{
			NI:       ni,
			NThreads: nt,
			NumTypes: len(pl.Clusters),
			TypeOf: func(tid int) int {
				return pl.ClusterOf(pl.CoreOf(tid, nt, amp.BindBS))
			},
			TypeDist: pl.TypeDist(),
		}
		// Slower per-iteration time on later (smaller) clusters, so the
		// fast types drain their shards and must steal across topology.
		perIter := make([]int64, len(pl.Clusters))
		for i := range perIter {
			perIter[i] = int64(100 * (i + 1))
		}
		for sname, s := range conformanceSchedulers(t, info) {
			t.Run(name+"/"+sname, func(t *testing.T) {
				counts, _ := virtualExec(t, s, info, perIter)
				var total int64
				for _, c := range counts {
					total += c
				}
				if total != ni {
					t.Fatalf("%s/%s covered %d of %d iterations", name, sname, total, ni)
				}
			})
		}
	}
}
