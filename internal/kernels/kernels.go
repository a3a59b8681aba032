// Package kernels provides small, real computational kernels that the
// runnable examples execute under the real-goroutine runtime. Each kernel
// corresponds to one of the workload archetypes in the paper's evaluation:
// Monte-Carlo sampling (NPB EP), a heat-diffusion stencil (Rodinia hotspot)
// and level-synchronous BFS (Rodinia bfs).
package kernels

import (
	"sync/atomic"

	"repro/internal/xrand"
)

// MonteCarloPiRange is the EP-style kernel: every iteration performs the same
// amount of independent arithmetic. It processes samples [lo, hi) of the
// pseudo-random stream for seed (points in the unit square) and returns how
// many fall inside the quarter circle, so a parallel loop can partition the
// sample space across worker threads and sum the partial results; π is
// estimated as 4·hits/samples.
func MonteCarloPiRange(lo, hi int64, seed uint64) int64 {
	var in int64
	for i := lo; i < hi; i++ {
		// Derive a per-sample generator so any partition of [0,n) yields
		// the same total as a sequential run.
		rng := xrand.New(seed ^ uint64(i)*0x9E3779B97F4A7C15)
		x := rng.Float64()
		y := rng.Float64()
		if x*x+y*y <= 1 {
			in++
		}
	}
	return in
}

// Grid is a dense 2-D scalar field for the stencil kernel.
type Grid struct {
	W, H int
	Data []float64
}

// NewGrid allocates a W×H grid initialized to zero.
func NewGrid(w, h int) *Grid {
	return &Grid{W: w, H: h, Data: make([]float64, w*h)}
}

// At returns the cell value at (x, y).
func (g *Grid) At(x, y int) float64 { return g.Data[y*g.W+x] }

// Set assigns the cell at (x, y).
func (g *Grid) Set(x, y int, v float64) { g.Data[y*g.W+x] = v }

// StencilRow computes one row of a 5-point heat-diffusion step from src into
// dst with diffusion coefficient alpha in (0, 0.25]. Border cells copy
// through. Rows are independent, so a parallel loop over y reproduces the
// hotspot access pattern (each iteration is one row of inner work).
func StencilRow(dst, src *Grid, y int, alpha float64) {
	w, h := src.W, src.H
	if y == 0 || y == h-1 {
		copy(dst.Data[y*w:(y+1)*w], src.Data[y*w:(y+1)*w])
		return
	}
	for x := 0; x < w; x++ {
		if x == 0 || x == w-1 {
			dst.Set(x, y, src.At(x, y))
			continue
		}
		c := src.At(x, y)
		lap := src.At(x-1, y) + src.At(x+1, y) + src.At(x, y-1) + src.At(x, y+1) - 4*c
		dst.Set(x, y, c+alpha*lap)
	}
}

// Graph is an adjacency-list graph for the BFS kernel.
type Graph struct {
	Adj [][]int32
}

// RandomGraph builds a connected pseudo-random graph with n vertices and
// roughly n*degree edges, deterministically from seed.
func RandomGraph(n, degree int, seed uint64) *Graph {
	rng := xrand.New(seed)
	g := &Graph{Adj: make([][]int32, n)}
	// A spanning path guarantees connectivity.
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.Adj[u] = append(g.Adj[u], int32(v))
		g.Adj[v] = append(g.Adj[v], int32(u))
	}
	extra := n * (degree - 2) / 2
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.Adj[u] = append(g.Adj[u], int32(v))
		g.Adj[v] = append(g.Adj[v], int32(u))
	}
	return g
}

// BFSLevel expands one BFS frontier: for frontier vertex index i, it scans
// the vertex's neighbours and claims unvisited ones into next using the
// level array (-1 means unvisited). It returns the claimed vertices. A claim
// is a compare-and-swap, so workers may expand parts of one frontier at once
// and each vertex is claimed by exactly one of them.
// Iterations have irregular cost (degree-dependent), the bfs workload's
// defining property.
func BFSLevel(g *Graph, frontier []int32, level []int32, depth int32) []int32 {
	var next []int32
	for _, u := range frontier {
		for _, v := range g.Adj[u] {
			if atomic.CompareAndSwapInt32(&level[v], -1, depth) {
				next = append(next, v)
			}
		}
	}
	return next
}
