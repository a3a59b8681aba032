// Observe: the flight-recorder subsystem end to end, on one multi-tenant
// run. Three loops — two batch tenants and a weighted interactive one —
// share a metrics-enabled registry; while they run, a scraper goroutine
// samples the fleet counters the way a Prometheus endpoint would. After the
// barriers release the example prints each loop's counter snapshot (chunks,
// steals by provenance tier, credit traffic, busy/sched split), a few
// lines of the Prometheus text rendering, and finally the offline analyzer's
// report — per-thread Gantt strips and the steal matrix — rebuilt from the
// same run's captured event tape.
//
// Run with: go run ./examples/observe
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/rt"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	reg, err := rt.NewRegistry(rt.RegistryConfig{Metrics: true}) // Platform A: 8 workers
	if err != nil {
		return err
	}
	defer reg.Close()

	var sink atomic.Int64
	body := func(_ int, lo, hi int64) { sink.Add(kernels.Spin(lo, hi, 300)) }
	reqs := []rt.LoopRequest{
		{Name: "batch-a", N: 200_000, Weight: 1, Schedule: core.Schedule{Kind: core.KindAIDDynamic}},
		{Name: "batch-b", N: 200_000, Weight: 1, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 16}},
		{Name: "interactive", N: 2_000, Weight: 8, Schedule: core.Schedule{Kind: core.KindDynamic, Chunk: 8}},
	}
	loops := make([]*rt.Loop, len(reqs))
	for i, req := range reqs {
		req.Body, req.Capture, req.CaptureMaxEvents = body, true, 512
		if loops[i], err = reg.Submit(req); err != nil {
			return err
		}
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
				fmt.Fprintf(out, "scrape: +%d chunks, +%d iters, +%d steals in the last 100ms\n",
					d.Chunks, d.Iters, d.Steals())
			}
		}
	}()
	statsOf := make([]obs.Outcome, len(loops))
	for i, l := range loops {
		statsOf[i] = l.Wait()
	}
	close(stopScrape)
	<-scrapeDone

	fmt.Fprintln(out, "\nper-loop counters:")
	fmt.Fprintf(out, "%-12s %8s %9s %6s %8s %9s %9s\n",
		"loop", "chunks", "iters", "steals", "credit", "busy-ms", "sched-ms")
	for i, st := range statsOf {
		m := st.Metrics
		fmt.Fprintf(out, "%-12s %8d %9d %6d %8d %9.2f %9.2f\n",
			reqs[i].Name, m.Chunks, m.Iters, m.Steals(), m.CreditClaimed,
			float64(m.BusyNs)/1e6, float64(m.SchedNs)/1e6)
	}

	// The same totals in the wire format a scraper fetches.
	var prom strings.Builder
	if err := obs.WritePrometheus(&prom, "", reg.MetricsSnapshot()); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nPrometheus rendering (sample lines):")
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "aid_chunks_total") ||
			strings.HasPrefix(line, "aid_iters_total") ||
			strings.HasPrefix(line, "aid_steals_total") ||
			strings.HasPrefix(line, "aid_occupancy_ns_total") {
			fmt.Fprintln(out, "  "+line)
		}
	}

	// Offline: rebuild the run from its captured tape and render the
	// analyzer's report — the view `aidstat run.jsonl` prints.
	rec, err := reg.BuildRecord(loops...)
	if err != nil {
		return err
	}
	a, err := obs.Analyze(rec)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\naidstat report of the captured tape:")
	return obs.WriteReport(out, rec, a)
}
