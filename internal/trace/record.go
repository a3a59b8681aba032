package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/amp"
)

// RecordVersion is the current serialization format version. Decode accepts
// exactly the versions in [1, RecordVersion]; a record written by a newer
// build fails loudly instead of being misinterpreted.
const RecordVersion = 1

// Record is a complete, serializable description of one recorded run — the
// persistent form of the Paraver-style data this package previously only
// rendered and threw away. A record captures everything internal/replay
// needs to re-execute the run deterministically in virtual time: the
// platform model, the loop descriptors (workload + cost profile), every
// chunk grant with its runtime-cost metadata, the AID schedulers' phase
// transitions, the SF-estimate trajectory, and (when a timed Recorder
// captured it) the per-thread timeline.
//
// Records round-trip losslessly through EncodeJSONL/DecodeJSONL:
// DecodeJSONL(EncodeJSONL(r)) is reflect.DeepEqual to r.
type Record struct {
	// Version is the serialization format version (RecordVersion).
	Version int `json:"version"`
	// Engine identifies the producer: "sim" (discrete-event, virtual ns) or
	// "rt" (real goroutines, monotonic wall-clock ns).
	Engine string `json:"engine"`
	// Platform is the full machine model, sufficient to rebuild it.
	Platform PlatformRecord `json:"platform"`
	// NThreads is the worker-fleet size of the recorded run.
	NThreads int `json:"nthreads"`
	// Binding is the thread-to-core convention, "BS" or "SB" (amp.ParseBinding).
	Binding string `json:"binding"`
	// Policy names the fairness policy of a multi-loop run ("" for
	// single-loop fork/join runs).
	Policy string `json:"policy,omitempty"`
	// StartNs is the run's start time on the producing engine's clock;
	// event times are absolute on that clock, not offsets from StartNs.
	StartNs int64 `json:"start_ns"`
	// MakespanNs is the start-to-last-barrier-release duration.
	MakespanNs int64 `json:"makespan_ns"`
	// Migrations lists the OS-driven thread migrations injected into the
	// run (sim only); replay re-injects them so speed tables evolve
	// identically.
	Migrations []MigrationRecord `json:"migrations,omitempty"`

	// Loops are the run's loop descriptors; ChunkEvent.Loop indexes them.
	Loops []LoopRecord `json:"-"`
	// Events is the chronological stream of chunk grants and retirements.
	Events []ChunkEvent `json:"-"`
	// Phases is the stream of AID scheduler transitions.
	Phases []PhaseEvent `json:"-"`
	// SFSamples is the SF-estimate trajectory (one sample per transition
	// that published an estimate, plus the final estimate per loop).
	SFSamples []SFSample `json:"-"`
	// Timeline is the per-thread interval timeline (nil when not captured);
	// a Recorder lays it out thread by thread, each in time order.
	Timeline []IntervalRecord `json:"-"`
}

// PlatformRecord is the serializable form of an amp.Platform.
type PlatformRecord struct {
	Name     string        `json:"name"`
	Clusters []amp.Cluster `json:"clusters"`
	Overhead amp.Overheads `json:"overhead"`
}

// PlatformRecordOf snapshots a platform into its serializable form.
func PlatformRecordOf(p *amp.Platform) PlatformRecord {
	return PlatformRecord{
		Name:     p.Name,
		Clusters: append([]amp.Cluster(nil), p.Clusters...),
		Overhead: p.Overhead,
	}
}

// Platform rebuilds the modeled machine.
func (pr PlatformRecord) Platform() (*amp.Platform, error) {
	return amp.New(pr.Name, pr.Clusters, pr.Overhead)
}

// MigrationRecord is one injected OS-driven thread migration.
type MigrationRecord struct {
	AtNs  int64 `json:"at_ns"`
	Tid   int   `json:"tid"`
	ToCPU int   `json:"to_cpu"`
}

// LoopRecord describes one loop of the recorded run.
type LoopRecord struct {
	// Index is the loop's position in Record.Loops (and the value
	// ChunkEvent.Loop carries).
	Index int `json:"index"`
	// Name is the loop's report name (e.g. "ep-main").
	Name string `json:"name"`
	// NI is the trip count.
	NI int64 `json:"ni"`
	// Weight is the fairness weight under multi-loop execution.
	Weight int `json:"weight,omitempty"`
	// ArriveNs is the loop's admission stamp on the producing engine's clock
	// under open-loop multi-loop execution (sim.LoopSpec.Arrive, clamped to
	// the run's start); zero means admitted at StartNs.
	ArriveNs int64 `json:"arrive_ns,omitempty"`
	// Scheduler is the scheduling method as the scheduler reported it
	// (core.Scheduler.Name, e.g. "aid-dynamic").
	Scheduler string `json:"scheduler"`
	// Schedule is the re-parseable schedule selection in GOOMP_SCHEDULE
	// syntax (e.g. "aid-dynamic,1,5"). Replay's keep-recorded-schedule
	// what-if mode needs it; recorders that cannot derive it leave it
	// empty, and what-if then requires an explicit schedule override.
	Schedule string `json:"schedule,omitempty"`
	// Profile is the loop body's instruction mix.
	Profile amp.Profile `json:"profile"`
	// Cost is the closed-form cost model when the producer recognized one;
	// nil means replay reconstructs a piecewise cost from the per-event
	// Cost fields.
	Cost *CostRecord `json:"cost,omitempty"`
}

// CostRecord is the serializable form of the closed-form cost models.
type CostRecord struct {
	// Kind is "uniform", "linear" or "block".
	Kind string `json:"kind"`
	// Base is the uniform per-iteration cost, the linear base, or the
	// block base.
	Base float64 `json:"base"`
	// Slope is the linear drift (kind "linear").
	Slope float64 `json:"slope,omitempty"`
	// Amp, BlockLen and Seed parameterize block-correlated noise (kind
	// "block").
	Amp      float64 `json:"amp,omitempty"`
	BlockLen int64   `json:"block_len,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
}

// ChunkEvent is one scheduler grant: either a chunk assignment or, with
// Retire set, the final empty call that sends the thread to the loop's
// barrier (which still costs pool accesses and is therefore recorded).
//
// Its small integers are held in the widths the scheduler reports them in,
// which makes an event 72 bytes (TestChunkEventLayout); a field added here is
// measured there first. DecodeJSONL reads each at its own bit size and, like
// encoding/json, refuses a line whose value does not fit.
type ChunkEvent struct {
	// Seq is the event's position in the engine's global grant order.
	Seq int64 `json:"seq"`
	// TimeNs is when the grant was issued on the producing engine's clock.
	TimeNs int64 `json:"time_ns"`
	// Tid is the worker thread the grant went to. A fleet fits: amp.New
	// caps a platform at 4096 cores, neither engine takes more workers than
	// the platform has cores (sim.Config.Validate, rt.NewRegistry), and
	// Validate bounds it by Record.NThreads.
	Tid int32 `json:"tid"`
	// Loop indexes Record.Loops, and Validate bounds it by their count. An
	// engine numbers a run's loops from 0, one LoopRecord each, so it would
	// hold 2^31 descriptors before the index did not fit.
	Loop int32 `json:"loop"`
	// Lo, Hi delimit the granted iterations [Lo, Hi); both zero on retire.
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	// Shard is the core-type shard the grant was served from (the
	// thread's home cluster at grant time). A core type fits: a platform's
	// clusters are its core types, at most its 4096 cores (amp.New).
	Shard int32 `json:"shard"`
	// Origin is the chunk's provenance as the scheduler reported it
	// (core.AssignCost.Origin, whose type it has): the owner core type of
	// the shard the iterations were claimed from, or core.OriginShared (-1)
	// for a type-shared structure (work-steal's deques). Replayed verbatim
	// so the per-shard contention and provenance-tiered locality charges
	// match the original run.
	Origin int32 `json:"origin,omitempty"`
	// Cost is the chunk's work in abstract units (the simulator's
	// RangeUnits; derived from ExecNs and the speed model under rt).
	Cost float64 `json:"cost,omitempty"`
	// ExecNs is the chunk's execution time on the producing engine.
	ExecNs int64 `json:"exec_ns,omitempty"`
	// PoolAccesses and Timestamps are the runtime-cost metadata of the
	// scheduler call (core.AssignCost's, in its types), replayed verbatim so
	// virtual-time charges match. The scheduler saturates PoolAccesses at
	// math.MaxInt16 (core's addAccesses) and takes at most one timestamp a
	// call; CompactEvents merges grants only while both sums still fit.
	PoolAccesses int16 `json:"pool,omitempty"`
	Timestamps   int16 `json:"ts,omitempty"`
	// Retire marks the final empty grant of (Loop, Tid).
	Retire bool `json:"retire,omitempty"`
}

// PhaseEvent is one recorded AID scheduler transition (see
// core.PhaseEvent; Loop additionally indexes Record.Loops).
type PhaseEvent struct {
	TimeNs int64     `json:"time_ns"`
	Tid    int       `json:"tid"`
	Loop   int       `json:"loop"`
	Epoch  int       `json:"epoch"`
	Kind   string    `json:"kind"`
	SF     []float64 `json:"sf,omitempty"`
}

// SFSample is one point of a loop's SF-estimate trajectory.
type SFSample struct {
	TimeNs int64     `json:"time_ns"`
	Loop   int       `json:"loop"`
	SF     []float64 `json:"sf"`
}

// IntervalRecord is one serialized timeline interval.
type IntervalRecord struct {
	Tid     int   `json:"tid"`
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	State   State `json:"state"`
}

// Validate checks a record's internal consistency (the invariants Decode
// enforces and replay relies on).
func (r *Record) Validate() error {
	if r.Version < 1 || r.Version > RecordVersion {
		return fmt.Errorf("trace: record version %d outside supported [1,%d]", r.Version, RecordVersion)
	}
	if r.Engine != "sim" && r.Engine != "rt" {
		return fmt.Errorf("trace: unknown record engine %q", r.Engine)
	}
	if r.NThreads <= 0 {
		return fmt.Errorf("trace: record has non-positive thread count %d", r.NThreads)
	}
	// Counted down and stopped once the cores suffice, so that no sum of
	// cluster sizes can overflow.
	left := r.NThreads
	for _, c := range r.Platform.Clusters {
		if left <= 0 {
			break
		}
		left -= max(c.NumCores, 0)
	}
	if left > 0 {
		return fmt.Errorf("trace: record has %d threads but platform %q has %d cores", r.NThreads, r.Platform.Name, r.NThreads-left)
	}
	if _, err := amp.ParseBinding(r.Binding); err != nil {
		return fmt.Errorf("trace: record: %w", err)
	}
	for i, l := range r.Loops {
		if l.Index != i {
			return fmt.Errorf("trace: loop %d carries index %d", i, l.Index)
		}
		if l.NI < 0 {
			return fmt.Errorf("trace: loop %d has negative trip count %d", i, l.NI)
		}
		if l.ArriveNs < 0 {
			return fmt.Errorf("trace: loop %d has negative arrival stamp %d", i, l.ArriveNs)
		}
	}
	for i, ev := range r.Events {
		if ev.Loop < 0 || int(ev.Loop) >= len(r.Loops) {
			return fmt.Errorf("trace: event %d references loop %d of %d", i, ev.Loop, len(r.Loops))
		}
		if ev.Tid < 0 || int(ev.Tid) >= r.NThreads {
			return fmt.Errorf("trace: event %d references thread %d of %d", i, ev.Tid, r.NThreads)
		}
		if !ev.Retire && ev.Hi <= ev.Lo {
			return fmt.Errorf("trace: event %d grants empty range [%d,%d)", i, ev.Lo, ev.Hi)
		}
		if math.IsNaN(ev.Cost) || math.IsInf(ev.Cost, 0) {
			return fmt.Errorf("trace: event %d has non-finite cost %v", i, ev.Cost)
		}
	}
	for i, p := range r.Phases {
		if p.Loop < 0 || p.Loop >= len(r.Loops) {
			return fmt.Errorf("trace: phase %d references loop %d of %d", i, p.Loop, len(r.Loops))
		}
		if p.Tid < 0 || p.Tid >= r.NThreads {
			return fmt.Errorf("trace: phase %d references thread %d of %d", i, p.Tid, r.NThreads)
		}
		if !allFinite(p.SF) {
			return fmt.Errorf("trace: phase %d has non-finite SF %v", i, p.SF)
		}
	}
	for i, s := range r.SFSamples {
		if s.Loop < 0 || s.Loop >= len(r.Loops) {
			return fmt.Errorf("trace: SF sample %d references loop %d of %d", i, s.Loop, len(r.Loops))
		}
		if !allFinite(s.SF) {
			return fmt.Errorf("trace: SF sample %d has non-finite SF %v", i, s.SF)
		}
	}
	for i, iv := range r.Timeline {
		if iv.Tid < 0 || iv.Tid >= r.NThreads {
			return fmt.Errorf("trace: timeline interval %d references thread %d of %d", i, iv.Tid, r.NThreads)
		}
	}
	return nil
}

// allFinite reports whether no value of fs is NaN or infinite.
func allFinite(fs []float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// jsonlLine is the envelope of one serialized line: a type tag plus the
// type-specific payload.
type jsonlLine struct {
	T string          `json:"t"`
	D json.RawMessage `json:"d"`
}

// Line type tags of the JSONL format.
const (
	lineRun      = "run"
	lineLoop     = "loop"
	lineEvent    = "ev"
	linePhase    = "phase"
	lineSF       = "sf"
	lineInterval = "iv"
)

// runHeader is the payload of the "run" line: the record's header fields and,
// when the record has events, their count, which lets DecodeJSONL size the
// event array once and tell a truncated stream from a whole one. The count
// is optional in version 1: a reader that does not know it ignores it, and a
// record without it decodes as before.
type runHeader struct {
	*Record
	Events int `json:"events,omitempty"`
}

// maxEventReservation caps what a run header's event count reserves before
// any event line backs it: 1<<16 events, about 4.7 MB. A stream longer than
// that grows in blocks past it (eventStream).
const maxEventReservation = 1 << 16

// EncodeJSONL writes the record as JSON Lines: a "run" header line (version,
// engine, platform, fleet shape, makespan and, unless there are none, the
// number of chunk events) followed by one line per loop descriptor, chunk
// event, phase transition, SF sample and timeline interval, in that order.
// The encoding is deterministic: encoding the same record twice yields
// byte-identical output (the property cmd/aidtrace's
// TestReplayDeterminism checks end to end). A record that fails Validate,
// or whose header or loop lines json.Marshal refuses, is refused before the
// first byte is written. Every line is spelled as encoding/json spells it:
// the header and loop lines are json.Marshal's, the per-event lines, which
// are nearly all of a record, are appended without reflection (evline.go).
//
// A destination that can reserve room, one with Grow(int) and
// AvailableBuffer() []byte as *bytes.Buffer has, is grown once to the
// record's encoded length and the lines are appended in place, so it
// allocates the record's bytes and next to nothing else. Any other writer,
// a file among them, gets the lines through a 4 KiB bufio.Writer.
func EncodeJSONL(w io.Writer, r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e := encoders.Get().(*encoder)
	defer func() {
		*e = encoder{json: e.json} // keep no line, and no destination's room
		encoders.Put(e)
	}()
	// Spell the header and loop lines once without keeping them: json.Marshal
	// may refuse one, and a reservation needs their length.
	e.counting = true
	if err := e.head(r); err != nil {
		return err
	}
	e.counting = false
	if dst, ok := w.(reserver); ok {
		dst.Grow(e.n + r.bodyLen())
		e.b = dst.AvailableBuffer()
		if err := e.lines(r); err != nil {
			return err
		}
		_, err := dst.Write(e.b)
		return err
	}
	e.bw = bufio.NewWriter(w)
	if err := e.lines(r); err != nil {
		return err
	}
	return e.bw.Flush()
}

// reserver is a destination that EncodeJSONL appends a record to in place:
// Grow reserves room, AvailableBuffer hands it out as an empty slice, and
// Write takes the filled slice back, copying it onto itself.
type reserver interface {
	io.Writer
	Grow(n int)
	AvailableBuffer() []byte
}

// encoder appends a record's lines to b. On the bufio path each line is
// handed to bw and b is reused; on a reservation b is the destination's
// room and keeps every line. encoder is also the writer its json.Encoder
// spells header and loop payloads into: into b, or, while counting, only
// into the count n.
type encoder struct {
	b        []byte
	bw       *bufio.Writer // nil when b is a reservation
	json     *json.Encoder
	counting bool
	n        int
	header   runHeader
}

// encoders keeps encoders, with the json.Encoder each writes through, from
// one EncodeJSONL to the next: a small record then allocates its own bytes
// and nothing else.
var encoders = sync.Pool{New: func() any {
	e := new(encoder)
	e.json = json.NewEncoder(e)
	return e
}}

// Write appends p to b, or counts it.
func (e *encoder) Write(p []byte) (int, error) {
	if e.counting {
		e.n += len(p)
	} else {
		e.b = append(e.b, p...)
	}
	return len(p), nil
}

// line ends a line: the bufio path hands it on.
func (e *encoder) line() error {
	if e.bw == nil {
		return nil
	}
	_, err := e.bw.Write(e.b)
	e.b = e.b[:0]
	return err
}

// lines appends every line of the record.
func (e *encoder) lines(r *Record) error {
	if err := e.head(r); err != nil {
		return err
	}
	for i := range r.Events {
		e.b = appendEventLine(e.b, &r.Events[i])
		if err := e.line(); err != nil {
			return err
		}
	}
	for i := range r.Phases {
		e.b = appendPhaseLine(e.b, &r.Phases[i])
		if err := e.line(); err != nil {
			return err
		}
	}
	for i := range r.SFSamples {
		e.b = appendSFLine(e.b, &r.SFSamples[i])
		if err := e.line(); err != nil {
			return err
		}
	}
	for i := range r.Timeline {
		e.b = appendIntervalLine(e.b, &r.Timeline[i])
		if err := e.line(); err != nil {
			return err
		}
	}
	return nil
}

// head appends the run header line and the loop lines.
func (e *encoder) head(r *Record) error {
	e.header = runHeader{r, len(r.Events)}
	if err := e.marshalLine(lineRun, &e.header); err != nil {
		return err
	}
	for i := range r.Loops {
		if err := e.marshalLine(lineLoop, &r.Loops[i]); err != nil {
			return err
		}
	}
	return nil
}

// marshalLine appends the line {"t":"<tag>","d":<payload>} whose payload is
// json.Marshal's spelling of v. (That is the line encoding/json spells for
// the envelope jsonlLine around the payload: its RawMessage is compacted and
// HTML-escaped, which json.Marshal's output already is.)
func (e *encoder) marshalLine(tag string, v any) error {
	e.Write([]byte(`{"t":"`))
	e.Write([]byte(tag))
	e.Write([]byte(`","d":`))
	if err := e.json.Encode(v); err != nil {
		return err
	}
	// Encode ends the payload with a newline; the line ends with "}\n".
	if e.counting {
		e.n++
	} else {
		e.b = append(e.b[:len(e.b)-1], "}\n"...)
	}
	return e.line()
}

// bodyLen is the length of the per-event lines: exact when every phase kind
// is plain (evline.go), and at least that otherwise.
func (r *Record) bodyLen() int {
	n := 0
	for i := range r.Events {
		n += eventLineLen(&r.Events[i])
	}
	for i := range r.Phases {
		n += phaseLineLen(&r.Phases[i])
	}
	for i := range r.SFSamples {
		n += sfLineLen(&r.SFSamples[i])
	}
	for i := range r.Timeline {
		n += intervalLineLen(&r.Timeline[i])
	}
	return n
}

// envelopeLimit bounds the lines whose envelope splitEnvelope splits in place.
// encoding/json refuses a value nested more than 10000 levels deep; a payload
// read without its envelope is one level shallower than the line, and a line
// shorter than the limit cannot nest that deep either way.
const envelopeLimit = 10000

// splitEnvelope splits a line that is spelled {"t":"<tag>","d":<payload>} the
// way writeLine spells it — no space, that key order — in place. A tag it
// returns is one of the format's only if the line began exactly so (none of
// them holds a quote or an escape); whether the payload is one JSON value is
// for its reader to find.
func splitEnvelope(line []byte) (tag, payload []byte, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"t":"`))
	if !ok || len(line) >= envelopeLimit || line[len(line)-1] != '}' {
		return nil, nil, false
	}
	return bytes.Cut(rest[:len(rest)-1], []byte(`","d":`))
}

// appendJSON appends the value encoding/json reads from payload.
func appendJSON[T any](s []T, payload []byte) ([]T, error) {
	var v T
	if err := json.Unmarshal(payload, &v); err != nil {
		return s, err
	}
	return append(s, v), nil
}

// DecodeJSONL reads a record previously written by EncodeJSONL. It fails on
// unknown versions, unknown line types and structurally invalid records, so
// a corrupt or future-format file cannot silently replay as garbage. When
// the run header counts the events, the decoder reserves that many up front,
// at most 1<<16 before the event lines back the count, and fails, naming
// both numbers, on a stream that holds a different number: a record cut
// short is an error, not a shorter run. A header without a count (as older
// builds wrote it) is read as before.
//
// It accepts a stream exactly when encoding/json accepts every line of it,
// and reads what encoding/json reads, because apart from one shortcut it is
// encoding/json: a line spelled byte for byte as EncodeJSONL spells it is
// read in place (a chunk event, phase transition, SF sample or timeline
// interval by its parse*Line in evline.go, the envelope of the header and
// loop lines by splitEnvelope, their payloads by json.Unmarshal), and any
// other line goes whole through json.Unmarshal, envelope first. Which of the
// two a line takes is decided by its bytes alone, and both give the same
// record.
func DecodeJSONL(rd io.Reader) (*Record, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var rec *Record
	var events eventStream
	counted := 0 // the header's event count; 0 when it carries none
	// add reads a line's payload into the section its tag names; a payload
	// that does not read changes nothing.
	add := func(tag, payload []byte) (err error) {
		if rec == nil && string(tag) != lineRun {
			return fmt.Errorf("expected run header, got %q", tag)
		}
		switch string(tag) {
		case lineRun:
			if rec != nil {
				return fmt.Errorf("duplicate run header")
			}
			h := runHeader{Record: &Record{}}
			if err := json.Unmarshal(payload, &h); err != nil {
				return err
			}
			if h.Version < 1 || h.Version > RecordVersion {
				return fmt.Errorf("unsupported record version %d (this build reads [1,%d])", h.Version, RecordVersion)
			}
			rec, counted = h.Record, h.Events
			if counted > 0 {
				events.head = make([]ChunkEvent, 0, min(counted, maxEventReservation))
			}
		case lineLoop:
			rec.Loops, err = appendJSON(rec.Loops, payload)
		case lineEvent:
			var ev ChunkEvent
			if err = json.Unmarshal(payload, &ev); err == nil {
				events.add(&ev)
			}
		case linePhase:
			rec.Phases, err = appendJSON(rec.Phases, payload)
		case lineSF:
			rec.SFSamples, err = appendJSON(rec.SFSamples, payload)
		case lineInterval:
			rec.Timeline, err = appendJSON(rec.Timeline, payload)
		default:
			return fmt.Errorf("unknown line type %q", tag)
		}
		return err
	}
	kinds := make(map[string]string) // parsePhaseLine's phase kinds
	// inPlace reads a per-event line spelled as the encoder spells it.
	inPlace := func(raw []byte) bool {
		var ev ChunkEvent
		if parseEventLine(raw, &ev) {
			events.add(&ev)
			return true
		}
		var p PhaseEvent
		if parsePhaseLine(raw, &p, kinds) {
			rec.Phases = append(rec.Phases, p)
			return true
		}
		var s SFSample
		if parseSFLine(raw, &s) {
			rec.SFSamples = append(rec.SFSamples, s)
			return true
		}
		var iv IntervalRecord
		if parseIntervalLine(raw, &iv) {
			rec.Timeline = append(rec.Timeline, iv)
			return true
		}
		return false
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if rec != nil && inPlace(raw) {
			continue
		}
		if tag, payload, ok := splitEnvelope(raw); ok && add(tag, payload) == nil {
			continue
		}
		// Not the encoder's spelling, or not a line at all: encoding/json says.
		var env jsonlLine
		err := json.Unmarshal(raw, &env)
		if err == nil {
			err = add([]byte(env.T), env.D)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading record: %w", err)
	}
	if rec == nil {
		return nil, fmt.Errorf("trace: empty record stream")
	}
	rec.Events = events.events(0)
	if counted != 0 && len(rec.Events) != counted {
		return nil, fmt.Errorf("trace: the run header counts %d events, the stream holds %d", counted, len(rec.Events))
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

// WriteFile writes the record to path as EncodeJSONL spells it, through a
// staging file next to it that is renamed into place: a record that Validate
// refuses, or a write that fails, leaves whatever was at path as it was and
// no staging file behind.
func WriteFile(path string, r *Record) error {
	part := path + ".part"
	f, err := os.Create(part)
	if err != nil {
		return err
	}
	err = EncodeJSONL(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(part, path)
	}
	if err != nil {
		os.Remove(part)
	}
	return err
}

// ReadFile reads the record file at path with DecodeJSONL.
func ReadFile(path string) (*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := DecodeJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return r, nil
}
