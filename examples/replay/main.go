// Replay: record a run, re-execute it deterministically, and hunt a
// scheduling regression without re-running the workload.
//
// The demo records EP's main loop under dynamic,1 in the simulator (a
// stand-in for a recorded production run), then:
//
//  1. exact-replays the record and shows the makespan reproduces bit for
//     bit (the record is self-validating: coverage and event times are
//     verified);
//  2. asks the what-if question "what would AID-dynamic have done with the
//     exact same workload?" — the regression-hunting workflow: candidate
//     scheduler changes are evaluated against recorded runs, in virtual
//     time, with no access to the original machine;
//  3. diffs the two runs into a regression report (here the AID run is an
//     improvement, so nothing is flagged — flip baseline and candidate to
//     see the regression gate fire).
//
// Run with: go run ./examples/replay
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	// --- record: EP under dynamic,1 on Platform A -----------------------
	pl := amp.PlatformA()
	sched, err := core.ParseSchedule("dynamic,1")
	if err != nil {
		log.Fatal(err)
	}
	rec := trace.NewRecorder()
	cfg := sim.Config{
		Platform: pl,
		NThreads: pl.NumCores(),
		Factory:  sched.Factory(),
		Trace:    trace.New(pl.NumCores()),
		Recorder: rec,
	}
	spec := sim.LoopSpec{
		Name:    "ep-main",
		NI:      16384,
		Profile: amp.Profile{ILP: 0.25, MemIntensity: 0.05, FootprintMB: 0.1},
		Cost:    sim.BlockNoisyCost{Base: 120000, Amp: 0.35, BlockLen: 256, Seed: 0xE9},
	}
	res, err := sim.RunLoop(cfg, spec, 0)
	if err != nil {
		log.Fatal(err)
	}
	rec.SetLoopSchedule(0, sched.Canonical())

	// Serialize and reload, as a production record shipped to a dev box.
	var wire bytes.Buffer
	if err := trace.EncodeJSONL(&wire, rec.Record()); err != nil {
		log.Fatal(err)
	}
	record, err := trace.DecodeJSONL(&wire)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded: %s under %s, makespan %d ns, %d grant events\n",
		spec.Name, sched, res.End-res.Start, len(record.Events))

	// --- exact replay ----------------------------------------------------
	exact, err := replay.Exact(record)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact replay: makespan %d ns (recorded %d) — verified identical\n",
		exact.MakespanNs, record.MakespanNs)

	// --- what-if: same workload, AID-dynamic instead ---------------------
	whatif, err := replay.WhatIf(record, replay.WhatIfConfig{Schedule: "aid-dynamic,1,5"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("what-if AID-dynamic: makespan %d ns (%+.1f%% vs recorded)\n\n",
		whatif.MakespanNs, 100*float64(whatif.MakespanNs-record.MakespanNs)/float64(record.MakespanNs))

	// --- diff: is the candidate a regression? ---------------------------
	fmt.Print(replay.Diff(record, whatif.Record, 2.0))
}
