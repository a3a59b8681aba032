package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/amp"
	"repro/internal/trace"
)

// ExportChrome writes a run record in the Chrome trace-event JSON format
// (the chrome://tracing / Perfetto "JSON object" flavor): one complete "X"
// event per chunk grant on thread lanes named after the workers, instant
// "i" events for retirements and AID phase transitions, and one "C" counter
// track per loop charting the SF-estimate trajectory: a point per phase that
// published an SF table.
//
// The output is byte-deterministic for a given record: events are emitted
// in the record's order, encoding/json sorts object keys, and Go renders
// floats with the shortest round-trip representation — the property
// aidstat's golden test pins. Timestamps are the record's nanoseconds
// scaled to the format's microseconds.
func ExportChrome(w io.Writer, rec *trace.Record) error {
	type obj = map[string]any
	events := make([]obj, 0, len(rec.Events)+2*len(rec.Phases)+rec.NThreads+1)
	events = append(events, obj{
		"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
		"args": obj{"name": fmt.Sprintf("%s run on %s", rec.Engine, rec.Platform.Name)},
	})
	pl, err := rec.Platform.Platform()
	if err != nil {
		return fmt.Errorf("obs: rebuilding recorded platform: %w", err)
	}
	binding, err := amp.ParseBinding(rec.Binding)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if rec.NThreads > pl.NumCores() {
		return fmt.Errorf("obs: record has %d threads but platform %q has %d cores", rec.NThreads, pl.Name, pl.NumCores())
	}
	for tid := 0; tid < rec.NThreads; tid++ {
		cluster := pl.ClusterOf(pl.CoreOf(tid, rec.NThreads, binding))
		events = append(events, obj{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
			"args": obj{"name": fmt.Sprintf("worker-%d (type%d)", tid, cluster)},
		})
	}
	us := func(ns int64) float64 { return float64(ns) / 1000.0 }
	for _, ev := range rec.Events {
		name := rec.LoopName(int(ev.Loop))
		if ev.Retire {
			events = append(events, obj{
				"name": "retire " + name, "cat": "retire", "ph": "i", "s": "t",
				"ts": us(ev.TimeNs), "pid": 1, "tid": ev.Tid,
			})
			continue
		}
		events = append(events, obj{
			"name": name, "cat": "chunk", "ph": "X",
			"ts": us(ev.TimeNs), "dur": us(ev.ExecNs), "pid": 1, "tid": ev.Tid,
			"args": obj{"lo": ev.Lo, "hi": ev.Hi, "shard": ev.Shard, "origin": ev.Origin,
				"pool": ev.PoolAccesses, "cost": ev.Cost},
		})
	}
	for _, p := range rec.Phases {
		events = append(events, obj{
			"name": p.Kind + " " + rec.LoopName(p.Loop), "cat": "phase", "ph": "i", "s": "t",
			"ts": us(p.TimeNs), "pid": 1, "tid": p.Tid,
			"args": obj{"epoch": p.Epoch},
		})
	}
	for _, p := range rec.Phases {
		if len(p.SF) == 0 {
			continue
		}
		args := obj{}
		for t, v := range p.SF {
			args[fmt.Sprintf("sf%d", t)] = v
		}
		events = append(events, obj{
			"name": "SF " + rec.LoopName(p.Loop), "cat": "sf", "ph": "C",
			"ts": us(p.TimeNs), "pid": 1,
			"args": args,
		})
	}
	doc := obj{"displayTimeUnit": "ms", "traceEvents": events}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err = w.Write([]byte("\n"))
	return err
}
