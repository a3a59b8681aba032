// Level-synchronous BFS — the irregular-parallelism workload (Rodinia bfs)
// — comparing dynamic and AID-dynamic on frontier loops whose iteration
// costs vary with vertex degree.
//
// The real part runs BFS over a random graph with goroutine workers under
// AID-dynamic and checks the level assignment. The simulated part runs a
// bfs-like sequence of short irregular loops on Platform A under dynamic
// and AID-dynamic, showing AID-dynamic's lower pool traffic.
//
// Run with: go run ./examples/graphbfs
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	// --- real parallel BFS ---------------------------------------------------
	const n = 20000
	g := kernels.RandomGraph(n, 8, 77)
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0

	team, err := rt.NewTeam(rt.TeamConfig{
		NThreads: 4,
		Schedule: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 16, Major: 128},
	})
	if err != nil {
		log.Fatal(err)
	}

	frontier := []int32{0}
	var mu sync.Mutex
	depth := int32(1)
	levels := 0
	for len(frontier) > 0 {
		var next []int32
		cur := frontier
		err := team.ParallelForChunked(int64(len(cur)), func(lo, hi int64) {
			part := kernels.BFSLevel(g, cur[lo:hi], level, depth)
			if len(part) > 0 {
				mu.Lock()
				next = append(next, part...)
				mu.Unlock()
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		frontier = next
		depth++
		levels++
	}
	visited := 0
	for _, lv := range level {
		if lv >= 0 {
			visited++
		}
	}
	fmt.Printf("real BFS: %d vertices, %d levels, visited %d/%d\n", n, levels, visited, n)

	// --- simulated comparison --------------------------------------------------
	pl := amp.PlatformA()
	w, _ := workloads.ByName("bfs")
	type outcome struct {
		name string
		ns   int64
		pool int64
	}
	var results []outcome
	for _, c := range []struct {
		name string
		f    sim.SchedulerFactory
	}{
		{"dynamic(1)", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewDynamic(i, 1) }},
		{"AID-dynamic(1,5)", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewAIDDynamic(i, 1, 5) }},
	} {
		res, err := sim.RunProgram(sim.Config{
			Platform: pl, NThreads: 8, Binding: amp.BindBS, Factory: c.f,
		}, w.Program)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, outcome{c.name, res.TotalNs, res.PoolAccesses})
	}
	fmt.Println("simulated bfs workload on Platform A:")
	for _, r := range results {
		fmt.Printf("%-18s %9.3f ms (virtual), %6d pool accesses\n", r.name, float64(r.ns)/1e6, r.pool)
	}
	if results[1].pool < results[0].pool {
		fmt.Printf("AID-dynamic removed %.0f%% of the shared-pool traffic\n",
			100*(1-float64(results[1].pool)/float64(results[0].pool)))
	}
}
