package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates the loop-scheduling methods.
type Kind int

const (
	// KindStatic is OpenMP static (even contiguous blocks, compiled in).
	KindStatic Kind = iota
	// KindStaticChunked is OpenMP static,chunk (round-robin blocks).
	KindStaticChunked
	// KindDynamic is OpenMP dynamic,chunk.
	KindDynamic
	// KindGuided is OpenMP guided,chunk.
	KindGuided
	// KindAIDStatic is the paper's AID-static (§4.2, Fig. 3).
	KindAIDStatic
	// KindAIDHybrid is the paper's AID-hybrid (§4.2).
	KindAIDHybrid
	// KindAIDDynamic is the paper's AID-dynamic (§4.2, Fig. 5).
	KindAIDDynamic
	// KindWorkSteal is the work-stealing alternative of §4.3: an even
	// initial split with back-half stealing from the most-loaded victim.
	KindWorkSteal
)

// kindNames are the kinds' names, in Kind order.
var kindNames = [...]string{"static", "static-chunked", "dynamic", "guided",
	"aid-static", "aid-hybrid", "aid-dynamic", "work-steal"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Schedule is a fully parameterized loop-schedule selection. It is a
// comparable value: Factory finds a spare scheduler by == on the defaulted
// schedule. AID-static's offline-SF variant (§5C) takes a table
// no schedule carries, so NewAIDStaticOffline builds it.
type Schedule struct {
	Kind Kind
	// Chunk is the dynamic/guided/static chunk, or the AID sampling chunk
	// (the minor chunk m for AID-dynamic). Defaults to 1 where it applies.
	Chunk int64
	// Major is AID-dynamic's Major chunk M (default 5, the paper's setting).
	Major int64
	// Pct is AID-hybrid's asymmetric share (default 0.80 per §5B).
	Pct float64
}

// WithDefaults fills unset parameters with the paper's defaults (chunk 1,
// Major 5, pct 0.80), so schedules equal after it build the same scheduler.
func (s Schedule) WithDefaults() Schedule {
	if s.Chunk == 0 {
		s.Chunk = 1
	}
	if s.Major == 0 {
		s.Major = 5
	}
	if s.Pct == 0 {
		s.Pct = 0.80
	}
	return s
}

// String renders the schedule in the paper's notation, e.g. "dynamic/4" or
// "AID-dynamic/1,5".
func (s Schedule) String() string {
	d := s.WithDefaults()
	switch s.Kind {
	case KindStatic:
		return "static"
	case KindStaticChunked:
		return fmt.Sprintf("static/%d", d.Chunk)
	case KindDynamic, KindGuided, KindWorkSteal:
		return fmt.Sprintf("%s/%d", s.Kind, d.Chunk)
	case KindAIDStatic:
		return "AID-static"
	case KindAIDHybrid:
		return fmt.Sprintf("AID-hybrid(%d%%)", int(d.Pct*100+0.5))
	case KindAIDDynamic:
		return fmt.Sprintf("AID-dynamic/%d,%d", d.Chunk, d.Major)
	}
	return s.Kind.String()
}

// Canonical renders the schedule in re-parseable GOOMP_SCHEDULE syntax:
// ParseSchedule(s.Canonical()) selects the same schedule. Run records store
// this form so replay's what-if mode can rebuild the recorded schedule.
// It is "" where the syntax cannot write the fields exactly: an AID-hybrid
// share that is no whole percentage in (0,100], a chunk or Major below 1. A
// record of such a run carries no re-parseable schedule and what-if replay
// demands an explicit override rather than silently substituting a
// different schedule.
func (s Schedule) Canonical() string {
	d := s.WithDefaults()
	if s.Kind != KindStatic && d.Chunk <= 0 {
		return ""
	}
	switch s.Kind {
	case KindStatic:
		return "static"
	case KindStaticChunked:
		return fmt.Sprintf("static,%d", d.Chunk)
	case KindDynamic, KindGuided, KindAIDStatic, KindWorkSteal:
		return fmt.Sprintf("%s,%d", s.Kind, d.Chunk)
	case KindAIDHybrid:
		pct := math.Round(d.Pct * 100)
		if !(pct >= 1 && pct <= 100) || pct/100 != d.Pct {
			return ""
		}
		if d.Chunk != 1 {
			return fmt.Sprintf("aid-hybrid,%d,%d", int(pct), d.Chunk)
		}
		return fmt.Sprintf("aid-hybrid,%d", int(pct))
	case KindAIDDynamic:
		if d.Major <= 0 {
			return ""
		}
		return fmt.Sprintf("%s,%d,%d", s.Kind, d.Chunk, d.Major)
	}
	return ""
}

// Factory returns a scheduler factory for either engine: sim's
// SchedulerFactory and the rt registry's loops both take it as it is. It
// re-arms a spare (Recycle) of the same defaulted schedule, thread count and
// core-type count before it builds a new scheduler.
func (s Schedule) Factory() func(LoopInfo) (Scheduler, error) {
	return s.WithDefaults().build
}

// spareKey is what a spare must match to be re-armed: the defaulted
// schedule and the loop shape that sizes the scheduler's storage.
type spareKey struct {
	sched              Schedule
	nthreads, numTypes int
}

// spares holds the spares of each spareKey that a scheduler was built for,
// and sparesMu guards the map and every list in it.
var (
	sparesMu sync.Mutex
	spares   = map[spareKey]*spareList{}
)

// spareList is one key's spares, newest last. Any goroutine takes any of
// them, and the garbage collector none, so a key holds as many as it ever had
// in use at once: a scheduler a worker thread released serves the next loop
// submitted from another, after any number of collections.
type spareList []keyed

// build re-arms the newest spare of the defaulted schedule d for info, or
// constructs a scheduler when its key has none. Either way the scheduler
// carries its key's list, for Recycle.
func (d Schedule) build(info LoopInfo) (Scheduler, error) {
	key := spareKey{d, info.NThreads, info.NumTypes}
	sparesMu.Lock()
	home := spares[key]
	if home != nil && len(*home) > 0 {
		n := len(*home) - 1
		s := (*home)[n]
		(*home)[n], *home = nil, (*home)[:n]
		sparesMu.Unlock()
		s.base().home = home
		return s, s.Reset(info)
	}
	sparesMu.Unlock()
	var s keyed
	var err error
	switch d.Kind {
	case KindStatic:
		s, err = NewStatic(info)
	case KindStaticChunked:
		s, err = NewStaticChunked(info, d.Chunk)
	case KindDynamic:
		s, err = NewDynamic(info, d.Chunk)
	case KindGuided:
		s, err = NewGuided(info, d.Chunk)
	case KindAIDStatic:
		s, err = NewAIDStatic(info, d.Chunk)
	case KindAIDHybrid:
		s, err = NewAIDHybrid(info, d.Chunk, d.Pct)
	case KindAIDDynamic:
		s, err = NewAIDDynamic(info, d.Chunk, d.Major)
	case KindWorkSteal:
		s, err = NewWorkSteal(info, d.Chunk)
	default:
		err = fmt.Errorf("core: unknown schedule kind %d", int(d.Kind))
	}
	if err != nil {
		return nil, err
	}
	if home == nil {
		sparesMu.Lock()
		if home = spares[key]; home == nil {
			home = new(spareList)
			spares[key] = home
		}
		sparesMu.Unlock()
	}
	s.base().home = home
	return s, nil
}

// Recycle hands s to the spares of its key when Factory built it and it is
// not a spare already; any other scheduler is left to the garbage collector.
// Whoever held s must be done with it. s first forgets its loop and phase
// observer, so that a spare keeps no engine, registry or recording reachable.
func Recycle(s Scheduler) {
	k, ok := s.(keyed)
	if !ok || k.base().home == nil {
		return
	}
	if po, ok := s.(PhaseObservable); ok {
		po.SetPhaseObserver(nil)
	}
	b := k.base()
	home := b.home
	b.info, b.home = LoopInfo{}, nil
	sparesMu.Lock()
	*home = append(*home, k)
	sparesMu.Unlock()
}

// A param names what one positional parameter of the GOOMP_SCHEDULE syntax
// sets: the chunk, AID-dynamic's Major chunk, or AID-hybrid's percentage.
type param int

const (
	paramChunk param = iota
	paramMajor
	paramPct
)

// scheduleSyntax is the GOOMP_SCHEDULE grammar: the kind each method name
// selects and its positional parameters, every one optional, in order.
var scheduleSyntax = map[string]struct {
	kind   Kind
	params []param
}{
	"static":      {KindStatic, []param{paramChunk}}, // with a chunk: KindStaticChunked
	"dynamic":     {KindDynamic, []param{paramChunk}},
	"guided":      {KindGuided, []param{paramChunk}},
	"aid-static":  {KindAIDStatic, []param{paramChunk}},
	"aid-hybrid":  {KindAIDHybrid, []param{paramPct, paramChunk}},
	"aid-dynamic": {KindAIDDynamic, []param{paramChunk, paramMajor}},
	"work-steal":  {KindWorkSteal, []param{paramChunk}},
}

// ParseSchedule parses the GOOMP_SCHEDULE syntax. Accepted forms (method
// names are case-insensitive; parameters follow after commas):
//
//	static            static,<chunk>
//	dynamic           dynamic,<chunk>
//	guided            guided,<chunk>
//	aid-static        aid-static,<chunk>
//	aid-hybrid        aid-hybrid,<pct>[,<chunk>]   (pct in percent, e.g. 80)
//	aid-dynamic       aid-dynamic,<m>[,<M>]
//	work-steal        work-steal,<chunk>
//
// Every parameter is a positive integer; any other word, such as a flag
// after the parameters, is an error.
func ParseSchedule(text string) (Schedule, error) {
	parts := strings.Split(strings.TrimSpace(text), ",")
	name := strings.ToLower(strings.TrimSpace(parts[0]))
	args := parts[1:]
	syntax, ok := scheduleSyntax[name]
	if !ok {
		return Schedule{}, fmt.Errorf("core: unknown schedule %q", name)
	}
	if len(args) > len(syntax.params) {
		return Schedule{}, fmt.Errorf("core: too many parameters in %q", text)
	}
	s := Schedule{Kind: syntax.kind}
	for i, arg := range args {
		v, err := strconv.ParseInt(strings.TrimSpace(arg), 10, 64)
		if err != nil || v <= 0 {
			return Schedule{}, fmt.Errorf("core: bad schedule parameter %q in %q", arg, text)
		}
		switch syntax.params[i] {
		case paramChunk:
			s.Chunk = v
			if s.Kind == KindStatic {
				s.Kind = KindStaticChunked
			}
		case paramMajor:
			s.Major = v
		case paramPct:
			if v > 100 {
				return Schedule{}, fmt.Errorf("core: AID-hybrid percentage %d out of (0,100]", v)
			}
			s.Pct = float64(v) / 100
		}
	}
	return s, nil
}
