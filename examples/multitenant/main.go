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
	"log"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/rt"
)

func spin(units int) float64 {
	x := 1.0
	for i := 0; i < units; i++ {
		x += 1.0 / (x + float64(i))
	}
	return x
}

func main() {
	reg, err := rt.NewRegistry(rt.RegistryConfig{}) // Platform A: 8 workers
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()

	var sink atomic.Int64
	body := func(_ int, lo, hi int64) {
		var acc float64
		for i := lo; i < hi; i++ {
			acc += spin(300)
		}
		sink.Add(int64(acc) + (hi - lo))
	}

	submit := func(name string, n int64, weight int, sched core.Schedule) *rt.Loop {
		l, err := reg.Submit(rt.LoopRequest{N: n, Schedule: sched, Weight: weight, Body: body})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %-12s %8d iterations, weight %d, schedule %s\n", name, n, weight, sched)
		return l
	}

	batchA := submit("batch-a", 300_000, 1, core.Schedule{Kind: core.KindAIDDynamic})
	batchB := submit("batch-b", 300_000, 1, core.Schedule{Kind: core.KindDynamic, Chunk: 16})
	interactive := submit("interactive", 2_000, 8, core.Schedule{Kind: core.KindDynamic, Chunk: 8})

	interactive.Wait()
	fmt.Printf("interactive done after %v (batch still running)\n", interactive.Latency())
	batchA.Wait()
	batchB.Wait()
	fmt.Printf("batch-a     done after %v\n", batchA.Latency())
	fmt.Printf("batch-b     done after %v\n", batchB.Latency())
}
