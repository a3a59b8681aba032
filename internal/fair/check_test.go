package fair

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// The fleet checker drives a Fleet through every sequence of Admit, Grant,
// Retire and Reset up to a fixed depth and compares each step with a plain
// model of maps and sets. Its contract for the sequences is the engines':
// Admit names a slot that holds no runnable loop, Retire a slot admitted
// since the last Reset (a repeated retirement, and one after the release,
// included), and loop IDs start over at each Reset, as the simulator's loop
// indices do.

// checkSlots is the number of slots a sequence admits loops to.
const checkSlots = 3

// checkDepth is the sequence length explored for a fleet of nthreads
// workers: deep enough, for each width, that a slot is admitted, released
// by every worker's retirement and admitted again.
var checkDepth = map[int]int{1: 7, 2: 6, 3: 5}

// op is one step of a sequence.
type op struct {
	kind      byte // 'a'dmit, 'g'rant, 'r'etire, 'z' (Reset)
	slot, tid int
}

func (o op) String() string {
	switch o.kind {
	case 'a':
		return fmt.Sprintf("Admit(%d)", o.slot)
	case 'g':
		return fmt.Sprintf("Grant(%d)", o.tid)
	case 'r':
		return fmt.Sprintf("Retire(%d,%d)", o.slot, o.tid)
	}
	return "Reset"
}

// held is a worker's last grant and whether a loop was admitted after it.
type held struct {
	g     Grant
	stale bool
}

// model is what the fleet must agree with, kept as plainly as it can be.
type model struct {
	nthreads int
	runnable map[int]uint64       // slot -> the ID of its runnable loop
	retired  map[int]map[int]bool // slot admitted since Reset -> workers retired from its last loop
	releases map[int]int          // slot admitted since Reset -> barrier releases of its last loop
	grants   map[int]held         // worker -> its last grant since Reset
	nextID   uint64
}

func newModel(nthreads int) *model {
	return &model{nthreads: nthreads, runnable: map[int]uint64{}, retired: map[int]map[int]bool{},
		releases: map[int]int{}, grants: map[int]held{}}
}

func (m *model) clone() *model {
	c := *m
	c.runnable, c.releases, c.grants = maps.Clone(m.runnable), maps.Clone(m.releases), maps.Clone(m.grants)
	c.retired = make(map[int]map[int]bool, len(m.retired))
	for slot, set := range m.retired {
		c.retired[slot] = maps.Clone(set)
	}
	return &c
}

// candidates returns the slots worker tid may be offered: runnable loops it
// has not retired from.
func (m *model) candidates(tid int) map[int]bool {
	out := map[int]bool{}
	for slot := range m.runnable {
		if !m.retired[slot][tid] {
			out[slot] = true
		}
	}
	return out
}

// cloneFleet copies f and its policy, so that each branch of the walk runs
// on its own.
func cloneFleet(f *Fleet) *Fleet {
	c := &Fleet{policy: f.policy, nthreads: f.nthreads, id: slices.Clone(f.id), weight: slices.Clone(f.weight),
		nretired: slices.Clone(f.nretired), retired: slices.Clone(f.retired), open: slices.Clone(f.open)}
	if w, ok := f.policy.(*weightedRoundRobin); ok {
		c.policy = &weightedRoundRobin{quantum: w.quantum, last: slices.Clone(w.last)}
	}
	c.admitted.Store(f.admitted.Load())
	return c
}

// checker walks the sequences of one fleet configuration.
type checker struct {
	t        *testing.T
	nthreads int
	depth    int
	seq      []op
	steps    int
	failed   bool
}

// fail reports a disagreement with the sequence that led to it, once per
// configuration.
func (c *checker) fail(format string, args ...any) {
	if c.failed {
		return
	}
	c.failed = true
	steps := make([]string, len(c.seq))
	for i, o := range c.seq {
		steps[i] = o.String()
	}
	c.t.Errorf("after %s: %s", strings.Join(steps, " "), fmt.Sprintf(format, args...))
}

// ops lists the steps the contract allows from m.
func (c *checker) ops(m *model) []op {
	var out []op
	for slot := 0; slot < checkSlots; slot++ {
		if _, ok := m.runnable[slot]; !ok {
			out = append(out, op{kind: 'a', slot: slot})
		}
	}
	for tid := 0; tid < c.nthreads; tid++ {
		out = append(out, op{kind: 'g', tid: tid})
	}
	for slot := 0; slot < checkSlots; slot++ {
		if _, ok := m.retired[slot]; ok {
			for tid := 0; tid < c.nthreads; tid++ {
				out = append(out, op{kind: 'r', slot: slot, tid: tid})
			}
		}
	}
	return append(out, op{kind: 'z'})
}

// walk applies every allowed step to copies of f and m and recurses.
func (c *checker) walk(f *Fleet, m *model) {
	if len(c.seq) == c.depth || c.failed {
		return
	}
	for _, o := range c.ops(m) {
		f, m := cloneFleet(f), m.clone()
		c.seq = append(c.seq, o)
		c.step(f, m, o)
		c.walk(f, m)
		c.seq = c.seq[:len(c.seq)-1]
	}
}

// step applies o to the fleet and the model and compares them.
func (c *checker) step(f *Fleet, m *model, o op) {
	c.steps++
	switch o.kind {
	case 'a':
		f.Admit(o.slot, m.nextID, o.slot+1)
		m.runnable[o.slot] = m.nextID
		m.retired[o.slot], m.releases[o.slot] = map[int]bool{}, 0
		m.nextID++
		for tid, h := range m.grants {
			m.grants[tid] = held{g: h.g, stale: true}
		}
	case 'g':
		want := m.candidates(o.tid)
		g, ok := f.Grant(o.tid)
		if ok != (len(want) > 0) {
			c.fail("Grant(%d) ok = %v with %d candidates in the model", o.tid, ok, len(want))
			return
		}
		offered := map[int]bool{}
		for i, slot := range f.candSlot {
			offered[slot] = true
			if id, run := m.runnable[slot]; !run || f.cands[i].ID != id {
				c.fail("Grant(%d) offered slot %d as loop %d, which the model does not hold runnable", o.tid, slot, f.cands[i].ID)
			}
		}
		if !maps.Equal(offered, want) {
			c.fail("Grant(%d) offered slots %v, want %v (runnable and not retired by the worker)", o.tid, offered, want)
		}
		if !ok {
			return
		}
		if !want[g.Slot] || g.Burst < 1 {
			c.fail("Grant(%d) = slot %d burst %d, want a candidate of %v and a burst >= 1", o.tid, g.Slot, g.Burst, want)
		}
		if f.policy == nil && (g.Burst != unbounded || m.runnable[g.Slot] != f.cands[0].ID) {
			c.fail("Grant(%d) without a policy = slot %d burst %d, want the first candidate unbounded", o.tid, g.Slot, g.Burst)
		}
		m.grants[o.tid] = held{g: g}
	case 'r':
		id, run := m.runnable[o.slot]
		first := run && !m.retired[o.slot][o.tid]
		if first {
			m.retired[o.slot][o.tid] = true
		}
		want := first && len(m.retired[o.slot]) == m.nthreads
		if want {
			delete(m.runnable, o.slot)
		}
		got := f.Retire(o.slot, o.tid)
		if got {
			if m.releases[o.slot]++; m.releases[o.slot] > 1 {
				c.fail("loop %d in slot %d released its barrier twice", id, o.slot)
			}
			if len(m.retired[o.slot]) < m.nthreads {
				c.fail("loop %d in slot %d released after %d of %d workers retired", id, o.slot, len(m.retired[o.slot]), m.nthreads)
			}
		}
		if got != want {
			c.fail("Retire(%d,%d) released = %v, want %v", o.slot, o.tid, got, want)
		}
	case 'z':
		f.Reset(f.policy)
		m.runnable, m.retired, m.releases, m.grants = map[int]uint64{}, map[int]map[int]bool{}, map[int]int{}, map[int]held{}
		m.nextID = 0
	}
	if f.Len() != len(m.runnable) {
		c.fail("Len = %d, want %d runnable loops", f.Len(), len(m.runnable))
	}
	for slot := 0; slot < checkSlots; slot++ {
		for tid := 0; tid < c.nthreads; tid++ {
			if got := f.Retired(slot, tid); got != m.retired[slot][tid] {
				c.fail("Retired(%d,%d) = %v, want %v", slot, tid, got, !got)
			}
		}
	}
	for tid, h := range m.grants {
		if f.Over(h.g, h.g.Burst-1) != h.stale {
			c.fail("worker %d's grant of slot %d: Over one call short of its burst = %v, want %v (a loop admitted since)",
				tid, h.g.Slot, !h.stale, h.stale)
		}
		if !f.Over(h.g, h.g.Burst) {
			c.fail("worker %d's grant of slot %d is not Over once its burst of %d is used", tid, h.g.Slot, h.g.Burst)
		}
	}
}

// TestFleetChecker walks every sequence of the contract up to checkDepth
// steps, for fleets of one to three workers over three slots, under each
// built-in policy and none.
func TestFleetChecker(t *testing.T) {
	policies := []struct {
		name string
		new  func() Policy
	}{
		{"wrr", func() Policy { return NewWeightedRoundRobin(2) }},
		{"fcfs", NewFCFS},
		{"nil", func() Policy { return nil }},
	}
	for _, p := range policies {
		for nthreads := 1; nthreads <= 3; nthreads++ {
			c := &checker{t: t, nthreads: nthreads, depth: checkDepth[nthreads]}
			c.walk(NewFleet(p.new(), nthreads), newModel(nthreads))
			t.Logf("%s, %d workers: %d steps to depth %d", p.name, nthreads, c.steps, c.depth)
		}
	}
}
