package trace

import (
	"fmt"
)

// Recorder accumulates a Record during one run. It is single-writer: the
// discrete-event simulator records directly from its event loop, and the
// real-goroutine runtime records into per-worker tapes that the registry
// merges and feeds to a Recorder when a record is built, after the loops'
// barriers have released, so the lock-free loop hot path never touches it.
//
// A Recorder serves exactly one run (one sim.RunLoop, one sim.RunLoops, or
// one rt loop/record batch): BeginRun fails on reuse.
type Recorder struct {
	rec    Record
	events eventStream // rec.Events until Record compacts it
	begun  bool
	seq    int64
	// expect, while non-nil, is the array given to Expect, and the run's
	// seq events so far equal its first seq; events stays empty until one
	// differs.
	expect []ChunkEvent
}

// eventStream is the one growth policy of a record's event array, shared by
// Recorder and DecodeJSONL. Events go straight into head while a reservation
// leaves room there; the rest go into blocks that double from 16 events to
// 4096 and then stay at 4096, so nothing is copied while the stream grows.
// events copies the blocks once into an exact array: a stream of n events
// allocates about 2n events' worth (2.13n for 21 725, 2.02n for 100 000), where
// an array that doubles allocates 2n to 4n (3.02n for 21 725).
type eventStream struct {
	head   []ChunkEvent   // the reservation, filled in place
	blocks [][]ChunkEvent // what did not fit into head, in order; all full but the last
}

// Block sizes of an eventStream, in events.
const (
	firstEventBlock = 16
	maxEventBlock   = 4096
)

// add appends one event.
func (s *eventStream) add(ev *ChunkEvent) {
	n := len(s.blocks)
	if n == 0 && len(s.head) < cap(s.head) {
		s.head = append(s.head, *ev)
		return
	}
	if n == 0 || len(s.blocks[n-1]) == cap(s.blocks[n-1]) {
		size := firstEventBlock
		if n > 0 {
			size = min(2*cap(s.blocks[n-1]), maxEventBlock)
		}
		s.blocks = append(s.blocks, make([]ChunkEvent, 0, size))
		n++
	}
	s.blocks[n-1] = append(s.blocks[n-1], *ev)
}

// events returns the stream as one array with room for extra more events,
// which then go into it in place. It copies only when the stream is in
// blocks or the room is short, and a lone block with the room is taken as is.
func (s *eventStream) events(extra int) []ChunkEvent {
	if len(s.head) == 0 && len(s.blocks) == 1 {
		s.head, s.blocks = s.blocks[0], nil
	}
	n := len(s.head)
	for _, b := range s.blocks {
		n += len(b)
	}
	if len(s.blocks) > 0 || cap(s.head)-n < extra {
		evs := make([]ChunkEvent, n, n+extra)
		i := copy(evs, s.head)
		for _, b := range s.blocks {
			i += copy(evs[i:], b)
		}
		s.head, s.blocks = evs, nil
	}
	return s.head
}

// RunMeta is the run-level header BeginRun stamps into the record.
type RunMeta struct {
	Engine     string
	Platform   PlatformRecord
	NThreads   int
	Binding    string
	Policy     string
	StartNs    int64
	Migrations []MigrationRecord
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// BeginRun stamps the run header. It fails if the recorder already served a
// run — a recorder must not be shared between runs, or the resulting record
// would interleave two event streams.
func (r *Recorder) BeginRun(meta RunMeta) error {
	if r.begun {
		return fmt.Errorf("trace: recorder already holds a run (one Recorder per recorded run)")
	}
	r.begun = true
	r.rec = Record{
		Version:    RecordVersion,
		Engine:     meta.Engine,
		Platform:   meta.Platform,
		NThreads:   meta.NThreads,
		Binding:    meta.Binding,
		Policy:     meta.Policy,
		StartNs:    meta.StartNs,
		Migrations: meta.Migrations,
	}
	return nil
}

// AddLoop registers a loop descriptor and returns its index (the value
// chunk events must carry in their Loop field).
func (r *Recorder) AddLoop(l LoopRecord) int {
	l.Index = len(r.rec.Loops)
	r.rec.Loops = append(r.rec.Loops, l)
	return l.Index
}

// SetLoopSchedule attaches the re-parseable schedule text to a registered
// loop (callers that know the core.Schedule set it; engines only know the
// resolved scheduler name).
func (r *Recorder) SetLoopSchedule(idx int, text string) {
	r.rec.Loops[idx].Schedule = text
}

// ReserveChunks pre-sizes the event stream for n upcoming Chunk calls, so
// a bulk merge (the rt registry feeding a whole run's worth of events, its
// one caller) fills one exact array in place. Without a reservation the
// stream grows in blocks (eventStream).
func (r *Recorder) ReserveChunks(n int) {
	r.events.events(n)
}

// Expect tells the recorder that the run will repeat evs, as an exact
// replay of a record does. While the run's events equal evs's in every
// field, Seq included, Chunk stores nothing; at the first one that differs
// the recorder reserves len(evs) events, copies in the matched prefix and
// records on as without Expect. Record returns evs itself when the run
// matched all of it and made no other call, so the record then shares the
// caller's array, and neither may be mutated. Expect must come before the
// run's first Chunk; later it does nothing.
func (r *Recorder) Expect(evs []ChunkEvent) {
	if r.seq == 0 {
		r.expect = evs
	}
}

// Chunk appends one grant event, assigning its global sequence number.
func (r *Recorder) Chunk(ev ChunkEvent) {
	ev.Seq = r.seq
	r.seq++
	if r.expect != nil {
		if ev.Seq < int64(len(r.expect)) && r.expect[ev.Seq] == ev {
			return
		}
		r.unexpect(int(ev.Seq))
	}
	r.events.add(&ev)
}

// unexpect ends the match with the expected events: the first n, the ones
// the run matched, go into a reservation of the expected length.
func (r *Recorder) unexpect(n int) {
	r.events.head = append(r.events.events(len(r.expect)), r.expect[:n]...)
	r.expect = nil
}

// Phase appends one scheduler transition.
func (r *Recorder) Phase(p PhaseEvent) {
	r.rec.Phases = append(r.rec.Phases, p)
	if p.SF != nil {
		r.rec.SFSamples = append(r.rec.SFSamples, SFSample{TimeNs: p.TimeNs, Loop: p.Loop, SF: p.SF})
	}
}

// SFSample appends one SF-trajectory point (engines add the final estimate
// of each loop at barrier release; transition-published estimates are added
// by Phase automatically).
func (r *Recorder) SFSample(s SFSample) {
	r.rec.SFSamples = append(r.rec.SFSamples, s)
}

// AttachTimeline stores the per-thread timeline.
func (r *Recorder) AttachTimeline(t *Trace) {
	r.rec.Timeline = timelineOf(t)
}

// EndRun finalizes the record with the run's makespan.
func (r *Recorder) EndRun(makespanNs int64) {
	r.rec.MakespanNs = makespanNs
}

// Record returns the accumulated record, its event stream compacted into one
// array, or the array given to Expect when the run repeated it exactly. The
// recorder retains ownership; callers must not mutate it while recording is
// still in progress, and events recorded after the call reach the record at
// the next call.
func (r *Recorder) Record() *Record {
	if r.expect != nil {
		if r.seq == int64(len(r.expect)) {
			r.rec.Events = r.expect
			return &r.rec
		}
		r.unexpect(int(r.seq)) // the run made fewer calls than expected
	}
	r.rec.Events = r.events.events(0)
	return &r.rec
}
