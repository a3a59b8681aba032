// Package replay re-executes recorded runs (trace.Record) in the
// discrete-event simulator — the regression-hunting workflow the ROADMAP
// calls trace-driven replay. Three modes:
//
//   - Exact re-executes the recorded chunk assignments: a script scheduler
//     replays each worker's grant sequence (including the recorded
//     pool-access and timestamp charges) through the simulator's engine —
//     as a fork/join team (sim.RunLoop) for a record that names no fairness
//     policy, as a fleet (sim.RunLoops) with the recorded arrival stamps
//     otherwise — and the result is checked against the record: identical
//     coverage always, identical event times and makespan for sim-produced
//     records. Replays are fully deterministic: replaying the same record
//     twice yields byte-identical serialized output. The replay's recorder
//     checks each event against the record as the engine makes it
//     (trace.Recorder.Expect), so the exact replay of a faithful sim record
//     shares the input's event array: neither record's events may be
//     mutated afterwards.
//   - WhatIf keeps the recorded workload (trip counts, cost profile,
//     platform, binding, fleet shape) but swaps the scheduler or the
//     fairness policy — answering "would AID-dynamic have beaten
//     the schedule we ran in production?" without re-running production.
//   - Diff compares two runs (recorded or replayed) into a regression
//     report over makespan, busy/Sched/Sync time, imbalance, pool traffic
//     and the SF trajectory — all read from the two records' trace.Digest,
//     so a diff and aidstat's report agree on every number they share.
//
// # Worked example: record, what-if, diff
//
// Record a production-shaped run on the real-goroutine engine, then ask in
// virtual time whether AID-dynamic would have beaten the schedule it ran
// under:
//
//	team, _ := rt.NewTeam(rt.TeamConfig{Schedule: core.Schedule{Kind: core.KindDynamic}})
//	defer team.Close()
//	rec, _ := team.RecordParallelFor("ingest", 1<<20, body)
//
//	// Persist / reload (e.g. ship the JSONL from production to a dev box).
//	var buf bytes.Buffer
//	trace.EncodeJSONL(&buf, rec)
//	rec, _ = trace.DecodeJSONL(&buf)
//
//	// Re-execute the recorded workload under a different scheduler.
//	base, _ := replay.WhatIf(rec, replay.WhatIfConfig{})                        // recorded schedule
//	cand, _ := replay.WhatIf(rec, replay.WhatIfConfig{Schedule: "aid-dynamic,1,5"}) // challenger
//	report := replay.Diff(base.Record, cand.Record, 2.0)
//	fmt.Print(report)
//
// The same record replays exactly (replay.Exact) to validate the record
// itself, and `aidtrace -record/-replay/-whatif/-diff` wraps this package
// for the command line.
package replay

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/fair"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Result is one replayed execution.
type Result struct {
	// Results holds the per-loop outcomes, index-aligned with the input
	// record's Loops.
	Results []sim.LoopResult
	// Record is the replayed run's own record — diff it against the
	// original (or serialize it; two replays of one record are
	// byte-identical). After an exact replay of a sim record that
	// reproduced every event, its Events is the input record's array, so
	// neither may be mutated; any other replay holds an array of its own.
	Record *trace.Record
	// MakespanNs is the replayed start-to-last-barrier-release duration.
	MakespanNs int64
}

// scriptSched replays a recorded per-thread grant sequence. It ignores the
// clock entirely — determinism comes from the script — and reproduces the
// recorded runtime-cost metadata so the simulator charges the same
// overheads the original run paid.
type scriptSched struct {
	name string
	// evs is the record's events in (TimeNs, Tid, Seq) order, and each
	// thread's script lists its grants as indices into evs.
	evs       []trace.ChunkEvent
	perThread [][]int32
	pos       []int
	// served counts, per worker, the calls every script of the run has
	// served it; the scripts and the scriptPolicy share it.
	served []int
}

func (s *scriptSched) Name() string { return s.name }

func (s *scriptSched) Next(tid int, _ int64) (core.Assign, bool) {
	q := s.perThread[tid]
	i := s.pos[tid]
	if i >= len(q) {
		// Past the scripted retire: report no work (costs nothing). This
		// only happens if the engine calls again after ok=false, which it
		// does not; defensive rather than reachable.
		return core.Assign{}, false
	}
	s.pos[tid] = i + 1
	s.served[tid]++
	ev := &s.evs[q[i]]
	cost := core.AssignCost{Origin: ev.Origin, PoolAccesses: ev.PoolAccesses, Timestamps: ev.Timestamps}
	return core.Assign{Lo: ev.Lo, Hi: ev.Hi, AssignCost: cost}, !ev.Retire
}

// scriptPolicy replays each worker's recorded loop-visit order under
// sim.RunLoops: a Pick grants the recorded loop for the whole run of calls
// the worker made to it in a row, so the fleet is consulted once per run,
// not once per call. The worker's place in its visit list is the number of
// calls the scripts served it, not a cursor of the policy's own: an arrival
// ends a grant early (sim.RunLoops re-picks for every worker), and the next
// Pick must resume where the served calls left off.
type scriptPolicy struct {
	perThread [][]int32 // loop index sequence per tid
	served    []int     // shared with every scriptSched of the run
}

func (p *scriptPolicy) Name() string { return "replay-script" }

func (p *scriptPolicy) Pick(tid int, cands []fair.Candidate) (int, int) {
	q := p.perThread[tid]
	i := p.served[tid]
	if i >= len(q) {
		return 0, 1 // script exhausted; unreachable on a consistent record
	}
	run := 1
	for i+run < len(q) && q[i+run] == q[i] {
		run++
	}
	want := uint64(q[i])
	for idx, c := range cands {
		if c.ID == want {
			return idx, run
		}
	}
	return 0, 1 // recorded loop already retired this worker; unreachable
}

// platformOf rebuilds the recorded machine and binding of a validated record,
// which has no more threads than its platform has cores.
func platformOf(rec *trace.Record) (*amp.Platform, amp.Binding, error) {
	pl, err := rec.Platform.Platform()
	if err != nil {
		return nil, 0, fmt.Errorf("replay: rebuilding platform: %w", err)
	}
	binding, err := amp.ParseBinding(rec.Binding)
	if err != nil {
		return nil, 0, fmt.Errorf("replay: %w", err)
	}
	return pl, binding, nil
}

// costOf rebuilds loop li's cost model: the recorded closed form when
// present, otherwise a piecewise model from the loop's grant events.
func costOf(rec *trace.Record, li int) (sim.CostModel, error) {
	if cr := rec.Loops[li].Cost; cr != nil {
		return sim.CostFromRecord(cr)
	}
	return costFromEvents(rec, li)
}

// specsOf rebuilds the recorded workload as simulator loop specs.
func specsOf(rec *trace.Record) ([]sim.LoopSpec, error) {
	specs := make([]sim.LoopSpec, len(rec.Loops))
	for li, l := range rec.Loops {
		cost, err := costOf(rec, li)
		if err != nil {
			return nil, fmt.Errorf("replay: loop %q: %w", l.Name, err)
		}
		specs[li] = sim.LoopSpec{Name: l.Name, NI: l.NI, Profile: l.Profile, Cost: cost, Weight: l.Weight, Arrive: l.ArriveNs}
	}
	return specs, nil
}

// migrationsOf rebuilds the recorded migration injections.
func migrationsOf(rec *trace.Record) []sim.Migration {
	var out []sim.Migration
	for _, m := range rec.Migrations {
		out = append(out, sim.Migration{AtNs: m.AtNs, Tid: m.Tid, ToCPU: m.ToCPU})
	}
	return out
}

// scriptsOf compiles the record's event stream into per-loop, per-thread
// grant scripts plus the policy that replays each worker's loop-visit order,
// all sharing one per-worker count of served calls. Events are taken in
// trace.EventOrder, which preserves every worker's recorded grant sequence
// (Seq breaks wall-clock ties within a worker under rt records); both
// engines' records are in that order already and are read in place, and a
// script holds indices into it, not copies of its grants. A counting pass
// sizes every script and visit list (carve) before the filling pass.
func scriptsOf(rec *trace.Record) (scheds []*scriptSched, pol *scriptPolicy) {
	evs := rec.Events
	if !slices.IsSortedFunc(evs, trace.EventOrder) {
		evs = slices.Clone(evs)
		slices.SortStableFunc(evs, trace.EventOrder)
	}
	nt := rec.NThreads
	perScript := make([]int, len(rec.Loops)*nt)
	perWorker := make([]int, nt)
	for i := range evs {
		perScript[int(evs[i].Loop)*nt+int(evs[i].Tid)]++
		perWorker[evs[i].Tid]++
	}
	scripts := carve[int32](perScript)
	scheds = make([]*scriptSched, len(rec.Loops))
	served := make([]int, nt)
	for li, l := range rec.Loops {
		scheds[li] = &scriptSched{
			name:      "replay(" + l.Scheduler + ")",
			evs:       evs,
			perThread: scripts[li*nt : (li+1)*nt : (li+1)*nt],
			pos:       make([]int, nt),
			served:    served,
		}
	}
	visit := carve[int32](perWorker)
	for i := range evs {
		ev := &evs[i]
		s := scheds[ev.Loop]
		s.perThread[ev.Tid] = append(s.perThread[ev.Tid], int32(i))
		visit[ev.Tid] = append(visit[ev.Tid], ev.Loop)
	}
	return scheds, &scriptPolicy{perThread: visit, served: served}
}

// carve returns len(counts) empty lists cut from one array, list i with room
// for exactly counts[i] elements, so filling each by append allocates
// nothing more and never reaches into its neighbour.
func carve[T any](counts []int) [][]T {
	total := 0
	for _, n := range counts {
		total += n
	}
	all := make([]T, total)
	lists := make([][]T, len(counts))
	for i, n := range counts {
		lists[i], all = all[:0:n], all[n:]
	}
	return lists
}

// Exact re-executes the recorded chunk assignments in virtual time and
// verifies the replay against the record: coverage must tile every loop's
// iteration space exactly, per-thread iteration totals must match the
// recorded grants, and for sim-produced records the replayed makespan and
// event times must be identical (the virtual-time engine is deterministic,
// so a faithful replay reproduces them bit for bit). rt-produced records
// replay their recorded assignments too, but wall-clock durations cannot be
// asserted against virtual time; coverage and grant sequence are.
func Exact(rec *trace.Record) (*Result, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	if err := checkCoverage(rec); err != nil {
		return nil, err
	}
	pl, binding, err := platformOf(rec)
	if err != nil {
		return nil, err
	}
	specs, err := specsOf(rec)
	if err != nil {
		return nil, err
	}
	scheds, pol := scriptsOf(rec)
	next := 0
	recorder := trace.NewRecorder()
	if rec.Timeline != nil {
		recorder = trace.NewTimedRecorder()
	}
	recorder.Expect(rec.Events) // a faithful replay makes the same calls
	cfg := sim.Config{
		Platform: pl,
		NThreads: rec.NThreads,
		Binding:  binding,
		FactoryNamed: func(string, core.LoopInfo) (core.Scheduler, error) {
			// The engine builds loops in spec order, so a counter maps
			// factory calls to script schedulers.
			s := scheds[next]
			next++
			return s, nil
		},
		Migrations: migrationsOf(rec),
		Recorder:   recorder,
	}
	res, err := runConfigured(cfg, rec, specs, pol)
	if err != nil {
		return nil, err
	}
	if err := verifyExact(rec, res); err != nil {
		return nil, err
	}
	return res, nil
}

// runConfigured executes a rebuilt configuration in the mode the record was
// made in: a record of one loop that names no fairness policy is a
// fork/join team (sim.RunLoop), anything else a fleet under the given
// policy (sim.RunLoops), recorded by cfg's Recorder. Shared by exact
// (scripted schedulers + scripted policy) and what-if (real schedulers +
// real policy) replay.
func runConfigured(cfg sim.Config, rec *trace.Record, specs []sim.LoopSpec, policy fair.Policy) (*Result, error) {
	var rs []sim.LoopResult
	var err error
	if len(specs) == 1 && rec.Policy == "" {
		rs = make([]sim.LoopResult, 1)
		rs[0], err = sim.RunLoop(cfg, specs[0], rec.StartNs)
	} else {
		rs, err = sim.RunLoops(cfg, specs, policy, rec.StartNs)
	}
	if err != nil {
		return nil, err
	}
	var maxEnd int64
	for _, r := range rs {
		maxEnd = max(maxEnd, r.End)
	}
	return &Result{Results: rs, Record: cfg.Recorder.Record(), MakespanNs: maxEnd - rec.StartNs}, nil
}

// checkCoverage asserts the record's grant events tile each loop's
// iteration space [0, NI) exactly once — the schedulers' exactly-once
// guarantee, which a truncated or corrupted record file would violate. A
// counting pass sizes each loop's list of grant indices (carve) before the
// filling pass. It also bounds the record to the events an int32 indexes,
// which the scripts (scriptsOf) rely on.
func checkCoverage(rec *trace.Record) error {
	evs := rec.Events
	if len(evs) > math.MaxInt32 {
		return fmt.Errorf("replay: record holds %d events, more than %d", len(evs), math.MaxInt32)
	}
	counts := make([]int, len(rec.Loops))
	for i := range evs {
		if !evs[i].Retire {
			counts[evs[i].Loop]++
		}
	}
	perLoop := carve[int32](counts)
	for i := range evs {
		if ev := &evs[i]; !ev.Retire {
			perLoop[ev.Loop] = append(perLoop[ev.Loop], int32(i))
		}
	}
	for li, grants := range perLoop {
		slices.SortFunc(grants, func(a, b int32) int { return cmp.Compare(evs[a].Lo, evs[b].Lo) })
		var pos int64
		for _, g := range grants {
			s := &evs[g]
			if s.Lo != pos {
				if s.Lo < pos {
					return fmt.Errorf("replay: loop %q grants iteration %d twice", rec.Loops[li].Name, s.Lo)
				}
				return fmt.Errorf("replay: loop %q never grants iterations [%d,%d)", rec.Loops[li].Name, pos, s.Lo)
			}
			pos = s.Hi
		}
		if pos != rec.Loops[li].NI {
			return fmt.Errorf("replay: loop %q covers %d of %d iterations", rec.Loops[li].Name, pos, rec.Loops[li].NI)
		}
	}
	return nil
}

// verifyExact compares the replayed execution against the source record.
func verifyExact(rec *trace.Record, res *Result) error {
	// Per-thread iteration totals must match the recorded grants in every
	// engine's records.
	wantIters := make([][]int64, len(rec.Loops))
	for li := range rec.Loops {
		wantIters[li] = make([]int64, rec.NThreads)
	}
	for _, ev := range rec.Events {
		if !ev.Retire {
			wantIters[ev.Loop][ev.Tid] += ev.Hi - ev.Lo
		}
	}
	for li, r := range res.Results {
		for tid, n := range r.Iters {
			if n != wantIters[li][tid] {
				return fmt.Errorf("replay: loop %q thread %d executed %d iterations, recorded %d",
					rec.Loops[li].Name, tid, n, wantIters[li][tid])
			}
		}
	}
	if rec.Engine != "sim" {
		return nil
	}
	// A sim-produced record must reproduce bit for bit: same event stream
	// with the same virtual times, same makespan.
	if res.MakespanNs != rec.MakespanNs {
		return fmt.Errorf("replay: makespan %d ns, recorded %d ns", res.MakespanNs, rec.MakespanNs)
	}
	got := res.Record.Events
	if len(got) != len(rec.Events) {
		return fmt.Errorf("replay: %d events, recorded %d", len(got), len(rec.Events))
	}
	if len(got) > 0 && &got[0] == &rec.Events[0] {
		return nil // the recorder matched every event (trace.Recorder.Expect)
	}
	for i := range got {
		g, w := got[i], rec.Events[i]
		if g.TimeNs != w.TimeNs || g.Tid != w.Tid || g.Loop != w.Loop ||
			g.Lo != w.Lo || g.Hi != w.Hi || g.Retire != w.Retire {
			return fmt.Errorf("replay: event %d diverged: got {t=%d tid=%d loop=%d [%d,%d) retire=%v}, recorded {t=%d tid=%d loop=%d [%d,%d) retire=%v}",
				i, g.TimeNs, g.Tid, g.Loop, g.Lo, g.Hi, g.Retire,
				w.TimeNs, w.Tid, w.Loop, w.Lo, w.Hi, w.Retire)
		}
	}
	return nil
}

// WhatIfConfig selects the counterfactual of a what-if replay. Zero-value
// fields keep the recorded configuration.
type WhatIfConfig struct {
	// Schedule, when non-empty, runs every loop under this schedule
	// (GOOMP_SCHEDULE syntax). Empty keeps each loop's recorded schedule —
	// which the record must then carry in parseable form.
	Schedule string
	// Policy, when non-empty, selects the fairness policy for multi-loop
	// records by name (fair.ParsePolicy: "wrr" or "fcfs").
	Policy string
}

// WhatIf re-executes the recorded workload — trip counts, cost profile,
// platform, binding, thread count — under a swapped schedule or policy, in
// virtual time. The run uses real schedulers (not scripts), so it answers
// how a different runtime configuration would have scheduled the same work. It is deterministic:
// the simulator's virtual clock drives the schedulers' sampling machinery,
// so repeated invocations on one record produce byte-identical records.
func WhatIf(rec *trace.Record, wcfg WhatIfConfig) (*Result, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	// A record with grant holes would silently under-cost the replayed
	// workload (missing iterations read as zero work under a piecewise
	// cost), so what-if demands the same integrity as exact replay.
	if err := checkCoverage(rec); err != nil {
		return nil, err
	}
	pl, binding, err := platformOf(rec)
	if err != nil {
		return nil, err
	}
	specs, err := specsOf(rec)
	if err != nil {
		return nil, err
	}
	// Resolve one schedule per loop: the override, or the loop's recorded
	// canonical form.
	factories := make([]sim.SchedulerFactory, len(specs))
	schedTexts := make([]string, len(specs))
	for li, l := range rec.Loops {
		text := wcfg.Schedule
		if text == "" {
			text = l.Schedule
		}
		if text == "" {
			return nil, fmt.Errorf("replay: loop %q carries no parseable schedule; pass an explicit what-if schedule", l.Name)
		}
		s, err := core.ParseSchedule(text)
		if err != nil {
			return nil, err
		}
		schedTexts[li] = s.Canonical()
		factories[li] = s.Factory()
	}
	next := 0
	cfg := sim.Config{
		Platform: pl,
		NThreads: rec.NThreads,
		Binding:  binding,
		FactoryNamed: func(_ string, info core.LoopInfo) (core.Scheduler, error) {
			// The engine builds loops in spec order, so a counter maps
			// factory calls to per-loop schedules.
			f := factories[next]
			next++
			return f(info)
		},
		Migrations: migrationsOf(rec),
		Recorder:   trace.NewTimedRecorder(),
	}
	// The fairness policy keeps the recorded configuration unless
	// overridden, like every other zero-value field; a record that names none
	// (a fork/join run, or several loops from a recorder that did not say) is
	// run under wrr.
	polName := wcfg.Policy
	if polName == "" {
		polName = rec.Policy
	}
	if polName == "" {
		polName = "wrr"
	}
	policy, err := fair.ParsePolicy(polName)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	res, err := runConfigured(cfg, rec, specs, policy)
	if err != nil {
		return nil, err
	}
	for li, text := range schedTexts {
		res.Record.Loops[li].Schedule = text
	}
	return res, nil
}
