package kernels

import (
	"math"
	"testing"
)

func TestMonteCarloPiConverges(t *testing.T) {
	const n = 200000
	pi := 4 * float64(MonteCarloPiRange(0, n, 42)) / n
	if math.Abs(pi-math.Pi) > 0.02 {
		t.Errorf("pi from %d samples = %v, want ~%v", n, pi, math.Pi)
	}
}

func TestMonteCarloPiDeterministic(t *testing.T) {
	if MonteCarloPiRange(0, 1000, 7) != MonteCarloPiRange(0, 1000, 7) {
		t.Error("MonteCarloPiRange not deterministic")
	}
	if MonteCarloPiRange(0, 1000, 7) == MonteCarloPiRange(0, 1000, 8) {
		t.Error("MonteCarloPiRange ignores seed")
	}
	if MonteCarloPiRange(5, 5, 1) != 0 {
		t.Error("an empty sample range has hits")
	}
}

func TestMonteCarloPiRangePartitionInvariant(t *testing.T) {
	// Any partition of the sample space must produce the same total.
	const n = 10000
	whole := MonteCarloPiRange(0, n, 99)
	split := MonteCarloPiRange(0, 3000, 99) +
		MonteCarloPiRange(3000, 7777, 99) +
		MonteCarloPiRange(7777, n, 99)
	if whole != split {
		t.Errorf("partitioned sum %d != whole %d", split, whole)
	}
	pi := 4 * float64(whole) / n
	if math.Abs(pi-math.Pi) > 0.1 {
		t.Errorf("range-based pi = %v", pi)
	}
}

func TestGridAndStencil(t *testing.T) {
	src := NewGrid(8, 8)
	dst := NewGrid(8, 8)
	src.Set(4, 4, 100)
	for y := 0; y < 8; y++ {
		StencilRow(dst, src, y, 0.25)
	}
	// Heat spreads to the four neighbours.
	for _, p := range [][2]int{{3, 4}, {5, 4}, {4, 3}, {4, 5}} {
		if dst.At(p[0], p[1]) != 25 {
			t.Errorf("neighbour (%d,%d) = %v, want 25", p[0], p[1], dst.At(p[0], p[1]))
		}
	}
	if dst.At(4, 4) != 0 {
		t.Errorf("center = %v, want 0 (alpha=0.25 fully diffuses)", dst.At(4, 4))
	}
	// Total heat is conserved away from borders.
	var sum float64
	for _, v := range dst.Data {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("heat not conserved: %v", sum)
	}
}

func TestStencilBordersCopy(t *testing.T) {
	src := NewGrid(5, 5)
	dst := NewGrid(5, 5)
	src.Set(0, 0, 7)
	src.Set(4, 4, 9)
	for y := 0; y < 5; y++ {
		StencilRow(dst, src, y, 0.2)
	}
	if dst.At(0, 0) != 7 || dst.At(4, 4) != 9 {
		t.Error("border cells not copied through")
	}
}

func TestRandomGraphConnected(t *testing.T) {
	g := RandomGraph(500, 6, 11)
	level := make([]int32, 500)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	frontier := []int32{0}
	visited := 1
	for depth := int32(1); len(frontier) > 0; depth++ {
		frontier = BFSLevel(g, frontier, level, depth)
		visited += len(frontier)
	}
	if visited != 500 {
		t.Errorf("BFS reached %d/500 vertices; graph must be connected", visited)
	}
}

func TestBFSLevelsMonotone(t *testing.T) {
	g := RandomGraph(200, 4, 5)
	level := make([]int32, 200)
	for i := range level {
		level[i] = -1
	}
	level[0] = 0
	frontier := []int32{0}
	for depth := int32(1); len(frontier) > 0; depth++ {
		frontier = BFSLevel(g, frontier, level, depth)
	}
	// Every vertex's level differs from some neighbour's by exactly 1
	// (BFS tree property), and no vertex is unvisited.
	for v, lv := range level {
		if lv < 0 {
			t.Fatalf("vertex %d unvisited", v)
		}
		if lv == 0 {
			continue
		}
		ok := false
		for _, u := range g.Adj[v] {
			if level[u] == lv-1 {
				ok = true
			}
		}
		if !ok {
			t.Errorf("vertex %d at level %d has no level-%d neighbour", v, lv, lv-1)
		}
	}
}

// TestSpin: an iteration of zero units is worth 1, one of one unit 2
// (1 + 1/(1+0)), and the range's length is added to the sum; an empty range
// is worth nothing.
func TestSpin(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		units  int
		want   int64
	}{{0, 4, 0, 8}, {5, 8, 1, 9}, {3, 3, 100, 0}} {
		if got := Spin(c.lo, c.hi, c.units); got != c.want {
			t.Errorf("Spin(%d, %d, %d) = %d, want %d", c.lo, c.hi, c.units, got, c.want)
		}
	}
}
