package rt

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
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

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindStaticChunked:
		return "static-chunked"
	case KindDynamic:
		return "dynamic"
	case KindGuided:
		return "guided"
	case KindAIDStatic:
		return "aid-static"
	case KindAIDHybrid:
		return "aid-hybrid"
	case KindAIDDynamic:
		return "aid-dynamic"
	case KindAIDAuto:
		return "aid-auto"
	case KindWorkSteal:
		return "work-steal"
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

// withDefaults fills unset parameters with the paper's defaults.
func (s Schedule) withDefaults() Schedule {
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
	d := s.withDefaults()
	switch s.Kind {
	case KindStatic:
		return "static"
	case KindStaticChunked:
		return fmt.Sprintf("static/%d", d.Chunk)
	case KindDynamic:
		return fmt.Sprintf("dynamic/%d", d.Chunk)
	case KindGuided:
		return fmt.Sprintf("guided/%d", d.Chunk)
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
	case KindWorkSteal:
		return fmt.Sprintf("work-steal/%d", d.Chunk)
	}
	return s.Kind.String()
}

// Canonical renders the schedule in re-parseable GOOMP_SCHEDULE syntax:
// ParseSchedule(s.Canonical()) selects the same schedule. Run records store
// this form so replay's what-if mode can rebuild the recorded schedule.
// The offline-SF table of AID-static(offline-SF) has no textual syntax, so
// Canonical returns "" for it — a record of such a run carries no
// re-parseable schedule and what-if replay demands an explicit override
// rather than silently substituting the online-sampling variant.
func (s Schedule) Canonical() string {
	rw := ""
	if s.Reweight {
		rw = ",rw"
	}
	d := s.withDefaults()
	switch s.Kind {
	case KindStatic:
		return "static"
	case KindStaticChunked:
		return fmt.Sprintf("static,%d", d.Chunk)
	case KindDynamic:
		return fmt.Sprintf("dynamic,%d", d.Chunk)
	case KindGuided:
		return fmt.Sprintf("guided,%d", d.Chunk)
	case KindAIDStatic:
		if s.OfflineSF != nil {
			return ""
		}
		return fmt.Sprintf("aid-static,%d%s", d.Chunk, rw)
	case KindAIDHybrid:
		if d.Chunk != 1 {
			return fmt.Sprintf("aid-hybrid,%d,%d%s", int(d.Pct*100+0.5), d.Chunk, rw)
		}
		return fmt.Sprintf("aid-hybrid,%d%s", int(d.Pct*100+0.5), rw)
	case KindAIDDynamic:
		return fmt.Sprintf("aid-dynamic,%d,%d%s", d.Chunk, d.Major, rw)
	case KindAIDAuto:
		return fmt.Sprintf("aid-auto,%d,%d", d.Chunk, d.Major)
	case KindWorkSteal:
		return fmt.Sprintf("work-steal,%d", d.Chunk)
	}
	return ""
}

// Factory returns a scheduler factory for the simulator or the Team
// executor.
func (s Schedule) Factory() sim.SchedulerFactory {
	d := s.withDefaults()
	return func(info core.LoopInfo) (core.Scheduler, error) {
		sched, err := d.build(info)
		if err != nil || !d.Reweight {
			return sched, err
		}
		rw, ok := sched.(interface{ SetReweight(bool) })
		if !ok {
			return nil, fmt.Errorf("rt: schedule %s does not support SF-aware reweighting", d.Kind)
		}
		rw.SetReweight(true)
		return sched, nil
	}
}

// build constructs the scheduler for an already-defaulted schedule.
func (d Schedule) build(info core.LoopInfo) (core.Scheduler, error) {
	switch d.Kind {
	case KindStatic:
		return core.NewStatic(info)
	case KindStaticChunked:
		return core.NewStaticChunked(info, d.Chunk)
	case KindDynamic:
		return core.NewDynamic(info, d.Chunk)
	case KindGuided:
		return core.NewGuided(info, d.Chunk)
	case KindAIDStatic:
		if d.OfflineSF != nil {
			return core.NewAIDStaticOffline(info, d.Chunk, d.OfflineSF)
		}
		return core.NewAIDStatic(info, d.Chunk)
	case KindAIDHybrid:
		return core.NewAIDHybrid(info, d.Chunk, d.Pct)
	case KindAIDDynamic:
		return core.NewAIDDynamic(info, d.Chunk, d.Major)
	case KindAIDAuto:
		return core.NewAIDAuto(info, d.Chunk, d.Pct, d.Major, 0)
	case KindWorkSteal:
		return core.NewWorkSteal(info, d.Chunk)
	}
	return nil, fmt.Errorf("rt: unknown schedule kind %d", int(d.Kind))
}

// reweightable reports whether a schedule kind supports the ",rw" flag.
func reweightable(k Kind) bool {
	return k == KindAIDStatic || k == KindAIDHybrid || k == KindAIDDynamic
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
	"aid-auto":    {KindAIDAuto, []param{paramChunk, paramMajor}},
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
		return Schedule{}, fmt.Errorf("rt: unknown schedule %q", name)
	}
	if len(args) > len(syntax.params) {
		return Schedule{}, fmt.Errorf("rt: too many parameters in %q", text)
	}
	s := Schedule{Kind: syntax.kind}
	for i, arg := range args {
		v, err := strconv.ParseInt(strings.TrimSpace(arg), 10, 64)
		if err != nil || v <= 0 {
			return Schedule{}, fmt.Errorf("rt: bad schedule parameter %q in %q", arg, text)
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
				return Schedule{}, fmt.Errorf("rt: AID-hybrid percentage %d out of (0,100]", v)
			}
			s.Pct = float64(v) / 100
		}
	}
	if reweight {
		if !reweightable(s.Kind) {
			return Schedule{}, fmt.Errorf("rt: schedule %q does not support the rw flag", name)
		}
		s.Reweight = true
	}
	return s, nil
}
