// Package trace captures runs as Records, the persistent form of the
// Paraver traces the paper uses to visualize load imbalance (Figs. 1 and 4):
// every chunk grant with its runtime-cost metadata, the AID schedulers'
// phase transitions and SF trajectory, and, when a timed Recorder captured
// it, each worker thread's timeline. A timeline is a sequence of intervals
// in one of three states — Running (useful iteration work), Sched (runtime
// scheduling and fork/join overhead), and Sync (waiting at the implicit
// barrier) — which Record.Render draws as an ASCII Gantt chart and
// Record.Digest sums per thread.
//
// A Recorder assembles every record: the simulator streams into it, and a
// runtime loop's workers write Tapes that it takes (Recorder.AddTapes).
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

// Interval is a half-open time span [Start, End) of one thread in one state.
type Interval struct {
	Start, End int64
	State      State
}

// Render draws the record's timeline as an ASCII Gantt chart of the given
// width (columns of timeline, excluding the row label), from time 0 to the
// latest interval end. Each row is one thread; '#' marks Running, '+' Sched,
// '.' Sync, ' ' no data. The dominant state within each column wins. A
// summary line closes the chart: the imbalance of the threads' Running time
// and the share of all timeline time spent in Sched. Only the timeline is
// read, so a record whose events were compacted or trimmed draws the same
// chart. Empty intervals and states outside the three are skipped.
func (r *Record) Render(width int) string {
	if width <= 0 {
		width = 80
	}
	var end int64
	for _, iv := range r.Timeline {
		if iv.EndNs > iv.StartNs {
			end = max(end, iv.EndNs)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %d ns   legend: #=Running +=Sched .=Sync\n", end)
	if end == 0 {
		return b.String()
	}
	// in[tid*3+s] is thread tid's time in state s, and
	// occupancy[(tid*3+s)*width+c] its share of column c.
	const nstates = 3
	in := make([]int64, r.NThreads*nstates)
	occupancy := make([]int64, len(in)*width)
	colDur := float64(end) / float64(width)
	for _, iv := range r.Timeline {
		if iv.EndNs <= iv.StartNs || iv.State < Running || iv.State > Sync {
			continue
		}
		row := iv.Tid*nstates + int(iv.State)
		in[row] += iv.EndNs - iv.StartNs
		occ := occupancy[row*width : (row+1)*width]
		c0 := max(int(float64(iv.StartNs)/colDur), 0)
		c1 := min(int(float64(iv.EndNs)/colDur), width-1)
		for c := c0; c <= c1; c++ {
			lo := max(iv.StartNs, int64(float64(c)*colDur))
			hi := min(iv.EndNs, int64(float64(c+1)*colDur))
			if hi > lo {
				occ[c] += hi - lo
			}
		}
	}
	row := make([]byte, width)
	var sched, total int64
	for tid := 0; tid < r.NThreads; tid++ {
		for c := range row {
			row[c] = ' '
			best := int64(0)
			for s := Running; s <= Sync; s++ {
				if o := occupancy[(tid*nstates+int(s))*width+c]; o > best {
					best, row[c] = o, s.glyph()
				}
			}
		}
		fmt.Fprintf(&b, "T%-2d |%s|\n", tid+1, row)
		sched += in[tid*nstates+int(Sched)]
		for s := Running; s <= Sync; s++ {
			total += in[tid*nstates+int(s)]
		}
	}
	schedPct := 0.0
	if total > 0 {
		schedPct = 100 * float64(sched) / float64(total)
	}
	fmt.Fprintf(&b, "imbalance: %.1f%%   sched overhead: %.2f%%\n",
		imbalancePct(r.NThreads, func(tid int) int64 { return in[tid*nstates+int(Running)] }), schedPct)
	return b.String()
}
