package replay

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/amp"
	"repro/internal/fair"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzReplayRecord: a record file is hostile input, and what the decoder
// accepts goes on to replay, what-if, the digest, the timeline chart and the
// Chrome export, none of which may panic on it. Each input that decodes and
// validates, with every loop at 16 384 iterations or fewer, is replayed
// exactly, re-run under its recorded configuration and under a swapped
// schedule and policy, digested, rendered and exported. An error from any of
// them is an answer; only a panic fails. The seeds are small sim records, a
// timed team loop and a two-loop fleet with one migration, under six
// schedules; testdata/fuzz/FuzzReplayRecord holds the inputs that once
// panicked.
func FuzzReplayRecord(f *testing.F) {
	specs := []sim.LoopSpec{
		{Name: "a", NI: 160, Profile: amp.Profile{ILP: 0.6}, Cost: sim.UniformCost{PerIter: 40000}},
		{Name: "b", NI: 96, Arrive: 30_000, Profile: amp.Profile{MemIntensity: 0.5},
			Cost: sim.LinearCost{Base: 20000, Slope: 50}},
	}
	for _, text := range []string{"static", "dynamic,4", "guided,2", "aid-static", "aid-hybrid,80", "aid-dynamic,1,5"} {
		for _, rec := range []*trace.Record{
			recordRun(f, text, specs[:1], nil, true),
			recordRun(f, text, specs, fair.NewWeightedRoundRobin(0), false, sim.Migration{AtNs: 60_000, Tid: 0, ToCPU: 7}),
		} {
			var buf bytes.Buffer
			if err := trace.EncodeJSONL(&buf, rec); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := trace.DecodeJSONL(bytes.NewReader(data))
		if err != nil || rec.Validate() != nil {
			return
		}
		for _, l := range rec.Loops {
			if l.NI > 16_384 {
				return
			}
		}
		swapped := WhatIfConfig{Schedule: "aid-dynamic,1,5", Policy: "fcfs"}
		if len(rec.Loops) > 0 && rec.Loops[0].Schedule == swapped.Schedule {
			swapped.Schedule = "dynamic,4"
		}
		if rec.Policy == swapped.Policy {
			swapped.Policy = "wrr"
		}
		_, _ = Exact(rec)
		_, _ = WhatIf(rec, WhatIfConfig{})
		_, _ = WhatIf(rec, swapped)
		_ = rec.Digest()
		_ = rec.Render(80)
		_ = obs.ExportChrome(io.Discard, rec)
	})
}
