package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// costRecord maps a CostModel to its serializable closed form, or nil for
// models with no closed form (replay then reconstructs a piecewise cost
// from the per-event Cost fields).
func costRecord(c CostModel) *trace.CostRecord {
	switch m := c.(type) {
	case UniformCost:
		return &trace.CostRecord{Kind: "uniform", Base: m.PerIter}
	case LinearCost:
		return &trace.CostRecord{Kind: "linear", Base: m.Base, Slope: m.Slope}
	case BlockNoisyCost:
		return &trace.CostRecord{Kind: "block", Base: m.Base, Amp: m.Amp, BlockLen: m.BlockLen, Seed: m.Seed}
	}
	return nil
}

// CostFromRecord rebuilds the closed-form cost model a recorder serialized
// with costRecord. It errors on unknown kinds rather than guessing.
func CostFromRecord(cr *trace.CostRecord) (CostModel, error) {
	if cr == nil {
		return nil, fmt.Errorf("sim: nil cost record")
	}
	switch cr.Kind {
	case "uniform":
		return UniformCost{PerIter: cr.Base}, nil
	case "linear":
		return LinearCost{Base: cr.Base, Slope: cr.Slope}, nil
	case "block":
		if cr.BlockLen <= 0 {
			return nil, fmt.Errorf("sim: block cost record has non-positive block length %d", cr.BlockLen)
		}
		return BlockNoisyCost{Base: cr.Base, Amp: cr.Amp, BlockLen: cr.BlockLen, Seed: cr.Seed}, nil
	}
	return nil, fmt.Errorf("sim: unknown cost record kind %q", cr.Kind)
}

// beginRecording stamps the run header for a recorded execution.
func beginRecording(cfg Config, policy string, startNs int64) error {
	var migs []trace.MigrationRecord
	for _, m := range cfg.Migrations {
		migs = append(migs, trace.MigrationRecord{AtNs: m.AtNs, Tid: m.Tid, ToCPU: m.ToCPU})
	}
	return cfg.Recorder.BeginRun(trace.RunMeta{
		Engine:     "sim",
		Platform:   trace.PlatformRecordOf(cfg.Platform),
		NThreads:   cfg.NThreads,
		Binding:    cfg.Binding.String(),
		Policy:     policy,
		StartNs:    startNs,
		Migrations: migs,
	})
}

// addLoopRecord registers the next loop's descriptor with the recorder.
// arriveNs is the loop's admission stamp, zero when it was admitted at the
// run's start.
func addLoopRecord(rec *trace.Recorder, spec LoopSpec, sched core.Scheduler, arriveNs int64) {
	rec.AddLoop(trace.LoopRecord{
		Name:      spec.Name,
		NI:        spec.NI,
		Weight:    spec.Weight,
		ArriveNs:  arriveNs,
		Scheduler: sched.Name(),
		Profile:   spec.Profile,
		Cost:      costRecord(spec.Cost),
	})
}
