package main

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/kernels"
)

// TestParallelBFSMatchesSerial: a level-synchronous BFS gives every vertex
// its distance from the source however a frontier's vertices are split
// among workers, so the real parallel run's level array is a serial BFS's,
// and the connected graph is visited whole. A chunk lost by the schedule
// leaves vertices unreached or deeper than they are.
func TestParallelBFSMatchesSerial(t *testing.T) {
	g := graph()
	got, levels, err := parallelBFS(g)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int32, len(g.Adj))
	for i := range want {
		want[i] = -1
	}
	want[0] = 0
	serialLevels := 0
	for frontier, depth := []int32{0}, int32(1); len(frontier) > 0; depth++ {
		frontier = kernels.BFSLevel(g, frontier, want, depth)
		serialLevels++
	}
	if levels != serialLevels {
		t.Errorf("parallel BFS took %d levels, serial %d", levels, serialLevels)
	}
	if i := slices.Index(got, -1); i >= 0 {
		t.Errorf("vertex %d never visited", i)
	}
	if !slices.Equal(got, want) {
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("vertex %d at level %d, serial BFS says %d", v, got[v], want[v])
			}
		}
	}
}

// graphbfsOutput is what the example prints. The real BFS line holds only
// the graph's shape, and the simulated lines are virtual time, so all of it
// is pinned to the digit.
const graphbfsOutput = `real BFS: 20000 vertices, 7 levels, visited 20000/20000
simulated bfs workload on Platform A:
dynamic(1)            54.480 ms (virtual), 165448 pool accesses
AID-dynamic(1,5)      45.449 ms (virtual),  40208 pool accesses
AID-dynamic removed 76% of the shared-pool traffic
`

func TestRunOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != graphbfsOutput {
		t.Errorf("output moved; got:\n%s\nwant:\n%s", out.String(), graphbfsOutput)
	}
}
