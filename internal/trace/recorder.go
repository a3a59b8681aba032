package trace

import (
	"fmt"
	"sync"
)

// Recorder accumulates a Record during one run. It is single-writer, and
// the engines fill it in one of two ways. The discrete-event simulator
// streams into it from its event loop, through Chunk, Phase, SFSample and
// Add. The real-goroutine runtime's workers write their loop's Tapes, which
// the registry hands over once the loop's barrier has released (AddTapes),
// so the lock-free loop hot path never touches a Recorder; the Recorder
// orders, merges, compacts and trims them.
//
// A Recorder serves exactly one run (one sim.RunLoop, one sim.RunLoops, or
// one rt loop/record batch): BeginRun fails on reuse.
//
// A timed Recorder (NewTimedRecorder) also keeps each thread's timeline: it
// is the obs.Timeline an engine's ledger writes intervals to, and Record
// lays them out in Record.Timeline, or those of the tapes it took. An
// untimed one keeps none, and an engine hands it to no ledger as a
// timeline.
type Recorder struct {
	rec    Record
	events eventStream // rec.Events until Record compacts it
	begun  bool
	timed  bool
	seq    int64
	// expect, while non-nil, is the array given to Expect, and the run's
	// seq events so far equal its first seq; events stays empty until one
	// differs.
	expect []ChunkEvent
	// threads holds a timed recorder's timeline, a tape's intervals per
	// thread, sized by BeginRun.
	threads Tapes
	// taken is every loop's tapes AddTapes took, in order, which EndRun
	// merges into the record.
	taken []taken
}

// eventStream is the one growth policy of a record's event array, shared by
// Recorder, Tapes and DecodeJSONL. Events go straight into head while a
// reservation leaves room there; the rest go into blocks that double from 16
// events to 4096 and then stay at 4096, so nothing is copied while the
// stream grows. events copies the blocks once into an exact array and hands
// them back to eventBlocks, where the next stream takes them: a warm stream
// of n events allocates its n-event array and little else, and a cold one
// about 2n (2.13n for 21 725, 2.02n for 100 000), where an array that
// doubles allocates 2n to 4n (3.02n for 21 725). A tape's blocks are never
// handed back: its stream is only read.
type eventStream struct {
	head   []ChunkEvent    // the reservation, filled in place
	blocks []*[]ChunkEvent // what did not fit into head, in order; all full but the last
}

// Block sizes of an eventStream, in events: block c of a stream holds
// firstEventBlock<<c, up to maxEventBlock from block eventBlockSizes-1 on.
const (
	firstEventBlock = 16
	eventBlockSizes = 9
	maxEventBlock   = firstEventBlock << (eventBlockSizes - 1) // 4096
)

// eventBlocks holds the blocks streams have handed back, one pool per block
// size, in the order of the sizes. A block is kept by the pointer the stream
// holds it by, so Put stores it without allocating.
var eventBlocks [eventBlockSizes]sync.Pool

// eventBlock returns an empty block of the size a stream's block i has.
func eventBlock(i int) *[]ChunkEvent {
	c := min(i, len(eventBlocks)-1)
	if b, ok := eventBlocks[c].Get().(*[]ChunkEvent); ok {
		return b
	}
	b := make([]ChunkEvent, 0, firstEventBlock<<c)
	return &b
}

// add appends one event.
func (s *eventStream) add(ev *ChunkEvent) {
	n := len(s.blocks)
	if n == 0 && len(s.head) < cap(s.head) {
		s.head = append(s.head, *ev)
		return
	}
	if n == 0 || len(*s.blocks[n-1]) == cap(*s.blocks[n-1]) {
		s.blocks = append(s.blocks, eventBlock(n))
		n++
	}
	b := s.blocks[n-1]
	*b = append(*b, *ev)
}

// events returns the stream as one array with room for extra more events,
// which then go into it in place. It copies only when the stream is in
// blocks or the room is short, and then hands the blocks back to
// eventBlocks; a lone block with the room is taken as is, and so never
// handed back.
func (s *eventStream) events(extra int) []ChunkEvent {
	if len(s.head) == 0 && len(s.blocks) == 1 && cap(*s.blocks[0])-len(*s.blocks[0]) >= extra {
		s.head, s.blocks = *s.blocks[0], nil
	}
	if n := s.len(); len(s.blocks) > 0 || cap(s.head)-n < extra {
		s.head = s.appendTo(make([]ChunkEvent, 0, n+extra))
		for i, b := range s.blocks {
			*b = (*b)[:0]
			eventBlocks[min(i, len(eventBlocks)-1)].Put(b)
		}
		s.blocks = nil
	}
	return s.head
}

// len is the number of events in the stream.
func (s *eventStream) len() int {
	n := len(s.head)
	for _, b := range s.blocks {
		n += len(*b)
	}
	return n
}

// appendTo appends the stream's events to dst, in order, and leaves the
// stream as it is.
func (s *eventStream) appendTo(dst []ChunkEvent) []ChunkEvent {
	dst = append(dst, s.head...)
	for _, b := range s.blocks {
		dst = append(dst, *b...)
	}
	return dst
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

// NewRecorder returns an empty recorder that keeps no timeline.
func NewRecorder() *Recorder { return &Recorder{} }

// NewTimedRecorder returns an empty recorder that also keeps the run's
// per-thread timeline.
func NewTimedRecorder() *Recorder { return &Recorder{timed: true} }

// Timed reports whether the recorder keeps a timeline.
func (r *Recorder) Timed() bool { return r.timed }

// BeginRun stamps the run header. It fails if the recorder already served a
// run — a recorder must not be shared between runs, or the resulting record
// would interleave two event streams — and on a non-positive thread count.
func (r *Recorder) BeginRun(meta RunMeta) error {
	if r.begun {
		return fmt.Errorf("trace: recorder already holds a run (one Recorder per recorded run)")
	}
	if meta.NThreads <= 0 {
		return fmt.Errorf("trace: run has non-positive thread count %d", meta.NThreads)
	}
	r.begun = true
	if r.timed {
		r.threads = make(Tapes, meta.NThreads)
	}
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

// SFSample appends one SF-trajectory point (the simulator adds the final
// estimate of each loop at barrier release; transition-published estimates
// are added by Phase automatically).
func (r *Recorder) SFSample(s SFSample) {
	r.rec.SFSamples = append(r.rec.SFSamples, s)
}

// Add appends an interval to thread tid's timeline, implementing
// obs.Timeline. Zero-length intervals are dropped; an interval that
// continues the thread's previous one in the same state is merged into it.
// A thread's intervals must come in time order. A tid outside the run's
// threads (every tid, on an untimed recorder or before BeginRun) or an
// interval that overlaps the thread's previous one panics: either is a
// programming error in the recording engine, not a recoverable condition.
func (r *Recorder) Add(tid int, start, end int64, s State) { r.threads.Add(tid, start, end, s) }

// EndRun finalizes the record: it merges the loops AddTapes took into it
// and stamps the run's makespan.
func (r *Recorder) EndRun(makespanNs int64) {
	r.merge()
	r.rec.MakespanNs = makespanNs
}

// Record returns the accumulated record, its event stream compacted into one
// array, or the array given to Expect when the run repeated it exactly, and
// a timed recorder's timeline laid out thread by thread, each in time order
// (the layout DecodeJSONL produces). The recorder retains ownership; callers
// must not mutate it while recording is still in progress, and events and
// intervals recorded after the call reach the record at the next call.
func (r *Recorder) Record() *Record {
	r.rec.Timeline = r.timeline()
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

// timeline flattens a timed recorder's per-thread interval lists, those of
// the loop it took when it took one, into a new array, nil when they hold
// none.
func (r *Recorder) timeline() []IntervalRecord {
	threads := r.threads
	if r.timed && len(r.taken) > 0 {
		threads = r.taken[0].tapes
	}
	n := 0
	for tid := range threads {
		n += len(threads[tid].intervals)
	}
	if n == 0 {
		return nil
	}
	out := make([]IntervalRecord, 0, n)
	for tid := range threads {
		for _, iv := range threads[tid].intervals {
			out = append(out, IntervalRecord{Tid: tid, StartNs: iv.Start, EndNs: iv.End, State: iv.State})
		}
	}
	return out
}
