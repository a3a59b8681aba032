// Package trace records per-thread execution timelines in the style of the
// Paraver traces the paper uses to visualize load imbalance (Figs. 1 and 4).
// Each worker thread contributes a sequence of intervals in one of three
// states — Running (useful iteration work), Sched (runtime scheduling and
// fork/join overhead), and Sync (waiting at the implicit barrier) — and the
// package renders them as an ASCII Gantt chart plus utilization metrics.
package trace

import (
	"fmt"
	"strings"
)

// State classifies what a thread was doing during an interval, mirroring the
// three categories in the paper's trace legends.
type State int

const (
	// Running means the thread executed loop iterations or serial work.
	Running State = iota
	// Sched means the thread was inside the runtime system (pool accesses,
	// sampling bookkeeping, fork/join).
	Sched
	// Sync means the thread waited at a barrier.
	Sync
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Running:
		return "Running"
	case Sched:
		return "Sched"
	case Sync:
		return "Sync"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// glyph is the ASCII rendering of each state.
func (s State) glyph() byte {
	switch s {
	case Running:
		return '#'
	case Sched:
		return '+'
	default:
		return '.'
	}
}

// Interval is a half-open time span [Start, End) in one state.
type Interval struct {
	Start, End int64
	State      State
}

// Trace accumulates intervals for a fixed number of threads. The zero value
// is not usable; call New. Trace is not safe for concurrent use; the
// simulator is single-goroutine and the real executor records per thread
// then merges.
type Trace struct {
	perThread [][]Interval
}

// New returns a trace for nThreads threads.
func New(nThreads int) *Trace {
	if nThreads <= 0 {
		panic(fmt.Sprintf("trace: non-positive thread count %d", nThreads))
	}
	return &Trace{perThread: make([][]Interval, nThreads)}
}

// NThreads returns the number of threads in the trace.
func (t *Trace) NThreads() int { return len(t.perThread) }

// Add appends an interval for a thread. Zero-length intervals are dropped;
// an interval that continues the previous one in the same state is merged.
// Intervals must be appended in non-decreasing time order per thread. An
// out-of-range tid panics with a descriptive message (it is a programming
// error in the recording engine, not a recoverable condition).
func (t *Trace) Add(tid int, start, end int64, s State) {
	if tid < 0 || tid >= len(t.perThread) {
		panic(fmt.Sprintf("trace: Add tid %d out of range [0,%d)", tid, len(t.perThread)))
	}
	if end <= start {
		return
	}
	ivs := t.perThread[tid]
	if n := len(ivs); n > 0 {
		if last := &ivs[n-1]; last.End > start {
			panic(fmt.Sprintf("trace: thread %d interval [%d,%d) overlaps previous end %d", tid, start, end, last.End))
		} else if last.End == start && last.State == s {
			last.End = end
			return
		}
	}
	t.perThread[tid] = append(ivs, Interval{Start: start, End: end, State: s})
}

// Intervals returns thread tid's recorded intervals (not a copy; callers
// must not modify it).
func (t *Trace) Intervals(tid int) []Interval { return t.perThread[tid] }

// EndTime returns the latest interval end across all threads.
func (t *Trace) EndTime() int64 {
	var end int64
	for _, ivs := range t.perThread {
		if n := len(ivs); n > 0 && ivs[n-1].End > end {
			end = ivs[n-1].End
		}
	}
	return end
}

// TimeIn returns the total time thread tid spent in state s.
func (t *Trace) TimeIn(tid int, s State) int64 {
	var sum int64
	for _, iv := range t.perThread[tid] {
		if iv.State == s {
			sum += iv.End - iv.Start
		}
	}
	return sum
}

// ImbalancePct is the load imbalance of the threads' Running times,
// 100·(maxRun − minRun)/maxRun — the formula Record.Digest applies to busy
// time. A perfectly balanced trace scores 0.
func (t *Trace) ImbalancePct() float64 {
	return imbalancePct(len(t.perThread), func(tid int) int64 { return t.TimeIn(tid, Running) })
}

// SchedOverheadPct returns the share of the aggregate thread-time spent in
// the runtime system (Sched), in percent.
func (t *Trace) SchedOverheadPct() float64 {
	var sched, total int64
	for tid := range t.perThread {
		for _, iv := range t.perThread[tid] {
			d := iv.End - iv.Start
			total += d
			if iv.State == Sched {
				sched += d
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(sched) / float64(total)
}

// Render draws the trace as an ASCII Gantt chart of the given width
// (columns of timeline, excluding the row label). Each row is one thread;
// '#' marks Running, '+' Sched, '.' Sync, ' ' no data. The dominant state
// within each column wins.
func (t *Trace) Render(width int) string {
	if width <= 0 {
		width = 80
	}
	end := t.EndTime()
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %d ns   legend: #=Running +=Sched .=Sync\n", end)
	if end == 0 {
		return b.String()
	}
	colDur := float64(end) / float64(width)
	for tid := range t.perThread {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		// Accumulate time per state per column, then pick the dominant.
		var occupancy [3][]int64
		for s := range occupancy {
			occupancy[s] = make([]int64, width)
		}
		for _, iv := range t.perThread[tid] {
			c0 := int(float64(iv.Start) / colDur)
			c1 := int(float64(iv.End) / colDur)
			if c1 >= width {
				c1 = width - 1
			}
			for c := c0; c <= c1; c++ {
				colStart := int64(float64(c) * colDur)
				colEnd := int64(float64(c+1) * colDur)
				lo, hi := iv.Start, iv.End
				if lo < colStart {
					lo = colStart
				}
				if hi > colEnd {
					hi = colEnd
				}
				if hi > lo {
					occupancy[iv.State][c] += hi - lo
				}
			}
		}
		for c := 0; c < width; c++ {
			best := int64(0)
			for s := 0; s < 3; s++ {
				if occupancy[s][c] > best {
					best = occupancy[s][c]
					row[c] = State(s).glyph()
				}
			}
		}
		fmt.Fprintf(&b, "T%-2d |%s|\n", tid+1, row)
	}
	fmt.Fprintf(&b, "imbalance: %.1f%%   sched overhead: %.2f%%\n",
		t.ImbalancePct(), t.SchedOverheadPct())
	return b.String()
}
