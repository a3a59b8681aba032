// Observe: the flight-recorder subsystem end to end, on one multi-tenant
// run. Three loops — two batch tenants and a weighted interactive one —
// share a metrics-enabled registry; while they run, a scraper goroutine
// samples the fleet counters the way a Prometheus endpoint would. After the
// barriers release the example prints each loop's counter snapshot (chunks,
// steals by provenance tier, credit traffic, busy/sched/idle split), a few
// lines of the Prometheus text rendering, and finally the offline analyzer's
// report — per-thread Gantt strips and the steal matrix — rebuilt from the
// same run's captured event tape.
//
// Run with: go run ./examples/observe
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
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
	reg, err := rt.NewRegistry(rt.RegistryConfig{Metrics: true}) // Platform A: 8 workers
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
		l, err := reg.Submit(rt.LoopRequest{
			Name: name, N: n, Schedule: sched, Weight: weight, Body: body,
			Capture: true, CaptureCompact: true, CaptureMaxEvents: 512,
		})
		if err != nil {
			log.Fatal(err)
		}
		return l
	}

	// A live scraper: deltas between successive fleet snapshots, the shape
	// a /metrics poller sees mid-run.
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		prev := reg.MetricsSnapshot()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
				cur := reg.MetricsSnapshot()
				d := cur.Delta(prev)
				prev = cur
				fmt.Printf("scrape: +%d chunks, +%d iters, +%d steals in the last 100ms\n",
					d.Chunks, d.Iters, d.Steals())
			}
		}
	}()

	batchA := submit("batch-a", 200_000, 1, core.Schedule{Kind: core.KindAIDDynamic, Reweight: true})
	batchB := submit("batch-b", 200_000, 1, core.Schedule{Kind: core.KindDynamic, Chunk: 16})
	interactive := submit("interactive", 2_000, 8, core.Schedule{Kind: core.KindDynamic, Chunk: 8})

	loops := []*rt.Loop{batchA, batchB, interactive}
	names := []string{"batch-a", "batch-b", "interactive"}
	statsOf := make([]rt.LoopStats, len(loops))
	for i, l := range loops {
		statsOf[i] = l.Wait()
	}
	close(stopScrape)
	<-scrapeDone

	fmt.Println("\nper-loop counters:")
	fmt.Printf("%-12s %8s %9s %6s %8s %7s %9s %9s %9s\n",
		"loop", "chunks", "iters", "steals", "credit", "reweigh", "busy-ms", "sched-ms", "idle-ms")
	for i, st := range statsOf {
		m := st.Metrics
		fmt.Printf("%-12s %8d %9d %6d %8d %7d %9.2f %9.2f %9.2f\n",
			names[i], m.Chunks, m.Iters, m.Steals(), m.CreditClaimed, m.Reweights,
			float64(m.BusyNs)/1e6, float64(m.SchedNs)/1e6, float64(m.IdleNs)/1e6)
	}

	// The same totals in the wire format a scraper fetches.
	var prom strings.Builder
	if err := obs.WritePrometheus(&prom, "", reg.MetricsSnapshot()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPrometheus rendering (sample lines):")
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "aid_chunks_total") ||
			strings.HasPrefix(line, "aid_steals_total") ||
			strings.HasPrefix(line, "aid_occupancy_ns_total") {
			fmt.Println("  " + line)
		}
	}

	// Offline: rebuild the run from its captured tape and render the
	// analyzer's report — the view `aidstat run.jsonl` prints.
	rec, err := reg.BuildRecord(loops...)
	if err != nil {
		log.Fatal(err)
	}
	a, err := obs.Analyze(rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\naidstat report of the captured tape:")
	if err := obs.WriteReport(os.Stdout, rec, a); err != nil {
		log.Fatal(err)
	}
}
