package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
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
	// KindAIDAuto is the §6 future-work extension implemented here: per
	// loop, the sampling phase classifies iteration costs as uniform or
	// irregular and picks the AID-hybrid or AID-dynamic treatment.
	KindAIDAuto
	// KindWorkSteal is the work-stealing alternative of §4.3: an even
	// initial split with back-half stealing from the most-loaded victim.
	KindWorkSteal
)

// kindNames are the kinds' names, in Kind order.
var kindNames = [...]string{"static", "static-chunked", "dynamic", "guided",
	"aid-static", "aid-hybrid", "aid-dynamic", "aid-auto", "work-steal"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Schedule is a fully parameterized loop-schedule selection.
type Schedule struct {
	Kind Kind
	// Chunk is the dynamic/guided/static chunk, or the AID sampling chunk
	// (the minor chunk m for AID-dynamic). Defaults to 1 where it applies.
	Chunk int64
	// Major is AID-dynamic's Major chunk M (default 5, the paper's setting).
	Major int64
	// Pct is AID-hybrid's asymmetric share (default 0.80 per §5B).
	Pct float64
	// OfflineSF, when non-nil, turns AID-static into the
	// AID-static(offline-SF) variant of §5C with the given per-core-type
	// speedup factors.
	OfflineSF []float64
	// Reweight enables SF-aware pool re-partitioning for the AID methods
	// that support it (aid-static/aid-hybrid/aid-dynamic): once the
	// scheduler's SF estimate stabilizes, the sharded pool is re-cut so
	// each core type's home shards match its consumption rate. Parsed from
	// a trailing ",rw" in GOOMP_SCHEDULE syntax.
	Reweight bool
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
// "AID-dynamic/1,5"; "+rw" marks SF-aware re-partitioning.
func (s Schedule) String() string {
	rw := ""
	if s.Reweight {
		rw = "+rw"
	}
	d := s.WithDefaults()
	switch s.Kind {
	case KindStatic:
		return "static"
	case KindStaticChunked:
		return fmt.Sprintf("static/%d", d.Chunk)
	case KindDynamic, KindGuided, KindWorkSteal:
		return fmt.Sprintf("%s/%d", s.Kind, d.Chunk)
	case KindAIDStatic:
		if s.OfflineSF != nil {
			return "AID-static(offline-SF)" + rw
		}
		return "AID-static" + rw
	case KindAIDHybrid:
		return fmt.Sprintf("AID-hybrid(%d%%)%s", int(d.Pct*100+0.5), rw)
	case KindAIDDynamic:
		return fmt.Sprintf("AID-dynamic/%d,%d%s", d.Chunk, d.Major, rw)
	case KindAIDAuto:
		return fmt.Sprintf("AID-auto/%d,%d", d.Chunk, d.Major)
	}
	return s.Kind.String()
}

// Canonical renders the schedule in re-parseable GOOMP_SCHEDULE syntax:
// ParseSchedule(s.Canonical()) selects the same schedule. Run records store
// this form so replay's what-if mode can rebuild the recorded schedule.
// It is "" where the syntax cannot write the fields exactly: the offline-SF
// table, an AID-hybrid share that is no whole percentage in (0,100], an
// AID-auto share other than the default, rw on a kind without it, a chunk
// or Major below 1. A record of such a run carries no re-parseable schedule
// and what-if replay demands an explicit override rather than silently
// substituting a different schedule.
func (s Schedule) Canonical() string {
	d := s.WithDefaults()
	rw := ""
	if s.Reweight {
		rw = ",rw"
	}
	switch {
	case s.Reweight && !scheduleSyntax[s.Kind.String()].rw,
		s.Kind != KindStatic && d.Chunk <= 0,
		s.Kind == KindAIDStatic && s.OfflineSF != nil,
		s.Kind == KindAIDAuto && d.Pct != 0.80:
		return ""
	}
	switch s.Kind {
	case KindStatic:
		return "static"
	case KindStaticChunked:
		return fmt.Sprintf("static,%d", d.Chunk)
	case KindDynamic, KindGuided, KindAIDStatic, KindWorkSteal:
		return fmt.Sprintf("%s,%d%s", s.Kind, d.Chunk, rw)
	case KindAIDHybrid:
		pct := math.Round(d.Pct * 100)
		if !(pct >= 1 && pct <= 100) || pct/100 != d.Pct {
			return ""
		}
		if d.Chunk != 1 {
			return fmt.Sprintf("aid-hybrid,%d,%d%s", int(pct), d.Chunk, rw)
		}
		return fmt.Sprintf("aid-hybrid,%d%s", int(pct), rw)
	case KindAIDDynamic, KindAIDAuto:
		if d.Major <= 0 {
			return ""
		}
		return fmt.Sprintf("%s,%d,%d%s", s.Kind, d.Chunk, d.Major, rw)
	}
	return ""
}

// Factory returns a scheduler factory for either engine: sim's
// SchedulerFactory and the rt registry's loops both take it as it is.
func (s Schedule) Factory() func(LoopInfo) (Scheduler, error) {
	d := s.WithDefaults()
	return func(info LoopInfo) (Scheduler, error) {
		sched, err := d.build(info)
		if err != nil || !d.Reweight {
			return sched, err
		}
		rw, ok := sched.(interface{ SetReweight(bool) })
		if !ok {
			return nil, fmt.Errorf("core: schedule %s does not support SF-aware reweighting", d.Kind)
		}
		rw.SetReweight(true)
		return sched, nil
	}
}

// build constructs the scheduler for an already-defaulted schedule.
func (d Schedule) build(info LoopInfo) (Scheduler, error) {
	switch d.Kind {
	case KindStatic:
		return NewStatic(info)
	case KindStaticChunked:
		return NewStaticChunked(info, d.Chunk)
	case KindDynamic:
		return NewDynamic(info, d.Chunk)
	case KindGuided:
		return NewGuided(info, d.Chunk)
	case KindAIDStatic:
		if d.OfflineSF != nil {
			return NewAIDStaticOffline(info, d.Chunk, d.OfflineSF)
		}
		return NewAIDStatic(info, d.Chunk)
	case KindAIDHybrid:
		return NewAIDHybrid(info, d.Chunk, d.Pct)
	case KindAIDDynamic:
		return NewAIDDynamic(info, d.Chunk, d.Major)
	case KindAIDAuto:
		return NewAIDAuto(info, d.Chunk, d.Pct, d.Major, 0)
	case KindWorkSteal:
		return NewWorkSteal(info, d.Chunk)
	}
	return nil, fmt.Errorf("core: unknown schedule kind %d", int(d.Kind))
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
// selects, its positional parameters, every one optional, in order, and
// whether it takes a trailing ",rw" (Schedule.Reweight).
var scheduleSyntax = map[string]struct {
	kind   Kind
	params []param
	rw     bool
}{
	"static":      {KindStatic, []param{paramChunk}, false}, // with a chunk: KindStaticChunked
	"dynamic":     {KindDynamic, []param{paramChunk}, false},
	"guided":      {KindGuided, []param{paramChunk}, false},
	"aid-static":  {KindAIDStatic, []param{paramChunk}, true},
	"aid-hybrid":  {KindAIDHybrid, []param{paramPct, paramChunk}, true},
	"aid-dynamic": {KindAIDDynamic, []param{paramChunk, paramMajor}, true},
	"aid-auto":    {KindAIDAuto, []param{paramChunk, paramMajor}, false},
	"work-steal":  {KindWorkSteal, []param{paramChunk}, false},
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
//	aid-auto          aid-auto,<m>[,<M>]
//	work-steal        work-steal,<chunk>
//
// The AID methods with an online SF estimate (aid-static, aid-hybrid,
// aid-dynamic) additionally accept a trailing ",rw" argument selecting
// SF-aware pool re-partitioning (Schedule.Reweight), e.g.
// "aid-dynamic,1,5,rw".
func ParseSchedule(text string) (Schedule, error) {
	parts := strings.Split(strings.TrimSpace(text), ",")
	name := strings.ToLower(strings.TrimSpace(parts[0]))
	args := parts[1:]
	reweight := false
	if n := len(args); n > 0 && strings.EqualFold(strings.TrimSpace(args[n-1]), "rw") {
		reweight = true
		args = args[:n-1]
	}
	syntax, ok := scheduleSyntax[name]
	if !ok {
		return Schedule{}, fmt.Errorf("core: unknown schedule %q", name)
	}
	if len(args) > len(syntax.params) {
		return Schedule{}, fmt.Errorf("core: too many parameters in %q", text)
	}
	if reweight && !syntax.rw {
		return Schedule{}, fmt.Errorf("core: schedule %q does not support the rw flag", name)
	}
	s := Schedule{Kind: syntax.kind, Reweight: reweight}
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
