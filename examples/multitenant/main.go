// Multitenant: several parallel loops — stand-ins for requests from
// different users — share one persistent worker fleet through rt.Registry
// instead of each forking its own thread team.
//
// Two batch loops are submitted first; a small "interactive" loop arrives
// last with a high fairness weight. Under the weighted round-robin policy
// the interactive loop is handed a large share of the fleet immediately,
// so its barrier releases long before the batch work finishes — per-loop
// barriers are independent even though every worker serves every loop.
//
// Run with: go run ./examples/multitenant
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/rt"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	reg, err := rt.NewRegistry(rt.RegistryConfig{}) // Platform A: 8 workers
	if err != nil {
		return err
	}
	defer reg.Close()

	var sink atomic.Int64
	body := func(_ int, lo, hi int64) { sink.Add(kernels.Spin(lo, hi, 300)) }

	reqs := []rt.LoopRequest{
		{Name: "batch-a", N: 300_000, Weight: 1, Schedule: core.Schedule{Kind: core.KindAIDDynamic}},
		{Name: "batch-b", N: 300_000, Weight: 1, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 16}},
		{Name: "interactive", N: 2_000, Weight: 8, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8}},
	}
	loops := make([]*rt.Loop, len(reqs))
	for i, req := range reqs {
		req.Body = body
		if loops[i], err = reg.Submit(req); err != nil {
			return err
		}
		fmt.Fprintf(out, "submitted %-12s %8d iterations, weight %d, schedule %s\n", req.Name, req.N, req.Weight, req.Schedule)
	}

	// The interactive loop, submitted last, is waited for first; each line
	// counts the iterations the loop's workers ran.
	for _, i := range []int{2, 0, 1} {
		var ran int64
		for _, n := range loops[i].Wait().Iters {
			ran += n
		}
		fmt.Fprintf(out, "%-12s done after %v, %d/%d iterations\n", reqs[i].Name, loops[i].Latency(), ran, reqs[i].N)
	}
	return nil
}
