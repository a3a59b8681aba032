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
	"io"
	"log"
	"os"
	"sync"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// graph is the random graph the real BFS walks from vertex 0.
func graph() *kernels.Graph { return kernels.RandomGraph(20000, 8, 77) }

func run(out io.Writer) error {
	// --- real parallel BFS ---------------------------------------------------
	level, levels, err := parallelBFS(graph())
	if err != nil {
		return err
	}
	visited := 0
	for _, lv := range level {
		if lv >= 0 {
			visited++
		}
	}
	fmt.Fprintf(out, "real BFS: %d vertices, %d levels, visited %d/%d\n", len(level), levels, visited, len(level))

	// --- simulated comparison --------------------------------------------------
	w, _ := workloads.ByName("bfs")
	fmt.Fprintln(out, "simulated bfs workload on Platform A:")
	var pool [2]int64
	for i, c := range []struct {
		name string
		f    sim.SchedulerFactory
	}{
		{"dynamic(1)", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewDynamic(i, 1) }},
		{"AID-dynamic(1,5)", func(i core.LoopInfo) (core.Scheduler, error) { return core.NewAIDDynamic(i, 1, 5) }},
	} {
		res, err := sim.RunProgram(sim.Config{
			Platform: amp.PlatformA(), NThreads: 8, Binding: amp.BindBS, Factory: c.f,
		}, w.Program)
		if err != nil {
			return err
		}
		pool[i] = res.PoolAccesses
		fmt.Fprintf(out, "%-18s %9.3f ms (virtual), %6d pool accesses\n", c.name, float64(res.TotalNs)/1e6, res.PoolAccesses)
	}
	if pool[1] < pool[0] {
		fmt.Fprintf(out, "AID-dynamic removed %.0f%% of the shared-pool traffic\n", 100*(1-float64(pool[1])/float64(pool[0])))
	}
	return nil
}

// parallelBFS runs a level-synchronous BFS of g from vertex 0 on four
// goroutine workers under AID-dynamic, one parallel loop per frontier. It
// returns each vertex's level (-1 if unreached) and the number of levels.
func parallelBFS(g *kernels.Graph) ([]int32, int, error) {
	level := make([]int32, len(g.Adj))
	for i := range level {
		level[i] = -1
	}
	level[0] = 0

	team, err := rt.NewTeam(rt.TeamConfig{
		NThreads: 4,
		Schedule: core.Schedule{Kind: core.KindAIDDynamic, Chunk: 16, Major: 128},
	})
	if err != nil {
		return nil, 0, err
	}
	defer team.Close()

	var mu sync.Mutex
	depth := int32(1)
	for frontier := []int32{0}; len(frontier) > 0; depth++ {
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
			return nil, 0, err
		}
		frontier = next
	}
	return level, int(depth - 1), nil
}
