package core

import (
	"math"
	"testing"
)

// timelineChunk stands, in timelineDeltas, for the time of the chunk the
// thread was last granted, at 100 ns (big) or 300 ns (small) an iteration.
const timelineChunk = -1

// timelineDeltas are the clock steps a timeline byte chooses from: none, one
// nanosecond, a chunk, a 10 ms stall and a 2^40 ns (18 min) one.
var timelineDeltas = [...]int64{0, 1, timelineChunk, 10_000_000, 1 << 40}

// timelineMaxSteps caps the steps read from an input: every thread's clock
// stays below 2·maxSteps·2^40 = 2^53 ns over both runs, so a sampling
// window's elapsed·1024 cannot wrap.
const timelineMaxSteps = 4096

// timelineShape decodes one byte to a loop: a trip count, a thread mix over
// two core types (the offline-SF entry's table has two), and with or without
// a topology matrix.
func timelineShape(b byte) LoopInfo {
	nis := [...]int64{0, 1, 5, 97, 1000}
	mixes := [...][2]int{{1, 0}, {1, 1}, {2, 2}, {1, 3}}
	mix := mixes[int(b)/len(nis)%len(mixes)]
	info := conformanceInfo(nis[int(b)%len(nis)], mix[0], mix[1])
	if b&0x80 != 0 {
		info.TypeDist = [][]int{{0, 1}, {1, 0}}
	}
	return info
}

// FuzzSchedulerTimeline drives every conformance scheduler through a
// timeline the input spells: byte 0 picks the loop of the first run, byte 1
// the loop the scheduler is Reset for and runs next, and each further byte
// (up to timelineMaxSteps) is one step, a call by thread low-nibble mod
// NThreads after its clock moved by timelineDeltas[high-nibble mod 5]. A
// step naming a thread that got ok=false goes to the next thread still
// running: no thread is called after its ok=false, so coverage shows that no
// scheduler needs such a call. When the input runs out, the running threads
// call round-robin, each clock moving by its last chunk. Per run it asserts
// exactly-once coverage, every grant non-empty and inside [0, NI), at most
// NI + NThreads calls (one per grant and one ok=false per thread, so a
// scheduler that never lets a thread go fails here), ReadsClock never turning
// back to true for a thread, and a ready SFEstimate finite and positive. A
// panic fails the input too.
func FuzzSchedulerTimeline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{17, 3})
	f.Add([]byte{19, 0x93, 0x20, 0x21, 0x22, 0x23, 0x20, 0x21, 0x22, 0x23})
	// Thread 3, small, stalls 2^40 ns in its sampling window while the others
	// sample in a nanosecond: SF and R at their extremes.
	f.Add([]byte{19, 19, 0x10, 0x11, 0x12, 0x43, 0x10, 0x11, 0x12, 0x13, 0x10, 0x11, 0x12})
	// Every clock frozen: every sampling window measures 0 ns.
	f.Add([]byte{18, 14, 0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{0x93, 0x8e, 0x30, 0x31, 0x32, 0x33, 0x40, 0x21, 0x20, 0x21})
	f.Fuzz(func(t *testing.T, data []byte) {
		shapes := [2]LoopInfo{timelineShape(0), timelineShape(0)}
		for i := 0; i < min(len(data), 2); i++ {
			shapes[i] = timelineShape(data[i])
		}
		steps := data[min(len(data), 2):]
		steps = steps[:min(len(steps), timelineMaxSteps)]
		for name, s := range conformanceSchedulers(t, shapes[0]) {
			clock := make([]int64, max(shapes[0].NThreads, shapes[1].NThreads))
			runTimeline(t, name+" fresh", s, shapes[0], steps, clock)
			if err := s.(Resettable).Reset(shapes[1]); err != nil {
				t.Fatalf("%s: Reset: %v", name, err)
			}
			runTimeline(t, name+" after Reset", s, shapes[1], steps, clock)
		}
	})
}

// runTimeline runs one execution of s over info's loop, as
// FuzzSchedulerTimeline describes, on the per-thread clocks given.
func runTimeline(t *testing.T, name string, s Scheduler, info LoopInfo, steps []byte, clock []int64) {
	nt := info.NThreads
	retired := make([]bool, nt)
	notReading := make([]bool, nt)
	lastN := make([]int64, nt)
	seen := make([]bool, info.NI)
	running, calls, covered := nt, int64(0), int64(0)
	call := func(tid int, delta int64) {
		if delta == timelineChunk {
			delta = lastN[tid] * []int64{100, 300}[info.TypeOf(tid)]
		}
		clock[tid] += delta
		if calls++; calls > info.NI+int64(nt) {
			t.Fatalf("%s: %d calls for %d iterations on %d threads", name, calls, info.NI, nt)
		}
		asg, ok := s.Next(tid, clock[tid])
		reads := ReadsClock(s, tid)
		if notReading[tid] && reads {
			t.Fatalf("%s: ReadsClock(thread %d) turned back to true at call %d", name, tid, calls)
		}
		notReading[tid] = !reads
		if !ok {
			retired[tid] = true
			running--
			return
		}
		if asg.Lo < 0 || asg.Hi > info.NI || asg.Lo >= asg.Hi {
			t.Fatalf("%s: thread %d granted [%d,%d) of [0,%d)", name, tid, asg.Lo, asg.Hi, info.NI)
		}
		for i := asg.Lo; i < asg.Hi; i++ {
			if seen[i] {
				t.Fatalf("%s: iteration %d granted twice", name, i)
			}
			seen[i] = true
		}
		covered += asg.N()
		lastN[tid] = asg.N()
	}
	for _, b := range steps {
		if running == 0 {
			break
		}
		tid := int(b&0x0f) % nt
		for retired[tid] {
			tid = (tid + 1) % nt
		}
		call(tid, timelineDeltas[int(b>>4)%len(timelineDeltas)])
	}
	for tid := 0; running > 0; tid = (tid + 1) % nt {
		if !retired[tid] {
			call(tid, timelineChunk)
		}
	}
	if covered != info.NI {
		t.Fatalf("%s: covered %d of %d iterations", name, covered, info.NI)
	}
	if e, ok := s.(SFEstimator); ok {
		if sf, ready := e.SFEstimate(); ready {
			for ct, v := range sf {
				if !(v > 0) || math.IsInf(v, 1) {
					t.Fatalf("%s: SF estimate %v: type %d is not finite and positive", name, sf, ct)
				}
			}
		}
	}
}
