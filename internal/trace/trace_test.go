package trace

import (
	"reflect"
	"strings"
	"testing"
)

// timedRecorder returns a timed recorder that has begun a run of n threads.
func timedRecorder(t *testing.T, n int) *Recorder {
	t.Helper()
	r := NewTimedRecorder()
	if err := r.BeginRun(RunMeta{Engine: "sim", NThreads: n, Binding: "BS"}); err != nil {
		t.Fatal(err)
	}
	return r
}

// stateNs sums thread tid's time in state s over the record's timeline.
func stateNs(r *Record, tid int, s State) int64 {
	var sum int64
	for _, iv := range r.Timeline {
		if iv.Tid == tid && iv.State == s {
			sum += iv.EndNs - iv.StartNs
		}
	}
	return sum
}

// summary is the last line of a rendered chart: imbalance and sched overhead.
func summary(chart string) string {
	lines := strings.Split(strings.TrimRight(chart, "\n"), "\n")
	return lines[len(lines)-1]
}

func TestBeginRunRefusesBadCount(t *testing.T) {
	for _, newRecorder := range []func() *Recorder{NewRecorder, NewTimedRecorder} {
		for _, n := range []int{0, -2} {
			if err := newRecorder().BeginRun(RunMeta{Engine: "sim", NThreads: n, Binding: "BS"}); err == nil {
				t.Errorf("BeginRun of %d threads succeeded", n)
			}
		}
	}
}

func TestAddAndQuery(t *testing.T) {
	rec := timedRecorder(t, 2)
	rec.Add(1, 0, 200, Running)
	rec.Add(0, 0, 100, Running)
	rec.Add(0, 100, 120, Sched)
	rec.Add(0, 120, 200, Sync)
	r := rec.Record()
	want := []IntervalRecord{
		{Tid: 0, StartNs: 0, EndNs: 100, State: Running},
		{Tid: 0, StartNs: 100, EndNs: 120, State: Sched},
		{Tid: 0, StartNs: 120, EndNs: 200, State: Sync},
		{Tid: 1, StartNs: 0, EndNs: 200, State: Running},
	}
	if !reflect.DeepEqual(r.Timeline, want) {
		t.Errorf("timeline %+v, want %+v (thread by thread, each in time order)", r.Timeline, want)
	}
	if got := stateNs(r, 0, Running); got != 100 {
		t.Errorf("thread 0 Running = %d, want 100", got)
	}
	if d := r.Digest(); !d.Timed || d.Threads[0].SchedNs != 20 || d.Threads[0].SyncNs != 80 || d.Threads[1].SyncNs != 0 {
		t.Errorf("digest %+v, want thread 0 at 20 ns Sched and 80 ns Sync", d)
	}
	if !strings.HasPrefix(r.Render(10), "time 0 .. 200 ns") {
		t.Errorf("chart does not end at 200 ns:\n%s", r.Render(10))
	}
}

func TestAddMergesAdjacentSameState(t *testing.T) {
	rec := timedRecorder(t, 1)
	rec.Add(0, 0, 50, Running)
	rec.Add(0, 50, 100, Running)
	if got := len(rec.Record().Timeline); got != 1 {
		t.Errorf("adjacent same-state intervals not merged: %d intervals", got)
	}
	rec.Add(0, 100, 150, Sync)
	if got := len(rec.Record().Timeline); got != 2 {
		t.Errorf("state change should create a new interval: %d", got)
	}
}

func TestAddDropsEmpty(t *testing.T) {
	rec := timedRecorder(t, 1)
	rec.Add(0, 100, 100, Running)
	rec.Add(0, 100, 90, Running)
	if got := rec.Record().Timeline; got != nil {
		t.Errorf("empty/negative intervals recorded: %+v", got)
	}
}

func TestAddPanicsOnOverlap(t *testing.T) {
	rec := timedRecorder(t, 1)
	rec.Add(0, 0, 100, Running)
	defer func() {
		if recover() == nil {
			t.Error("overlapping Add did not panic")
		}
	}()
	rec.Add(0, 50, 150, Sync)
}

func TestUtilizationAndImbalance(t *testing.T) {
	rec := timedRecorder(t, 2)
	// Thread 0 runs the whole time; thread 1 runs half then waits.
	rec.Add(0, 0, 1000, Running)
	rec.Add(1, 0, 500, Running)
	rec.Add(1, 500, 1000, Sync)
	r := rec.Record()
	if got := stateNs(r, 0, Running); got != 1000 {
		t.Errorf("thread 0 Running = %v", got)
	}
	if got := stateNs(r, 1, Running); got != 500 {
		t.Errorf("thread 1 Running = %v", got)
	}
	if got := summary(r.Render(40)); got != "imbalance: 50.0%   sched overhead: 0.00%" {
		t.Errorf("summary %q, want 50%% imbalance", got)
	}
}

func TestImbalanceBalanced(t *testing.T) {
	rec := timedRecorder(t, 4)
	for tid := 0; tid < 4; tid++ {
		rec.Add(tid, 0, 1000, Running)
	}
	if got := summary(rec.Record().Render(40)); !strings.HasPrefix(got, "imbalance: 0.0%") {
		t.Errorf("balanced timeline: summary %q", got)
	}
}

func TestRenderSchedOverhead(t *testing.T) {
	rec := timedRecorder(t, 1)
	rec.Add(0, 0, 90, Running)
	rec.Add(0, 90, 100, Sched)
	if got := summary(rec.Record().Render(40)); !strings.HasSuffix(got, "sched overhead: 10.00%") {
		t.Errorf("summary %q, want 10%% sched overhead", got)
	}
}

func TestEmptyTraceMetrics(t *testing.T) {
	r := timedRecorder(t, 2).Record()
	if r.Timeline != nil || r.Digest().Timed {
		t.Errorf("a timed recorder without intervals has a timeline: %+v", r.Timeline)
	}
	if out := r.Render(40); out != "time 0 .. 0 ns   legend: #=Running +=Sched .=Sync\n" {
		t.Errorf("empty render is not the header alone: %q", out)
	}
}

func TestRenderShape(t *testing.T) {
	rec := timedRecorder(t, 2)
	rec.Add(0, 0, 1000, Running)
	rec.Add(1, 0, 500, Running)
	rec.Add(1, 500, 1000, Sync)
	out := rec.Record().Render(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + 2 thread rows + footer
	if len(lines) != 4 {
		t.Fatalf("render has %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "T1 ") || !strings.HasPrefix(lines[2], "T2 ") {
		t.Errorf("thread rows mislabeled: %q %q", lines[1], lines[2])
	}
	// Thread 1's row should be all '#'; thread 2's second half mostly '.'.
	row1 := lines[1][strings.Index(lines[1], "|")+1 : strings.LastIndex(lines[1], "|")]
	if strings.ContainsAny(row1, ". +") {
		t.Errorf("thread 1 row should be fully Running: %q", row1)
	}
	row2 := lines[2][strings.Index(lines[2], "|")+1 : strings.LastIndex(lines[2], "|")]
	firstHalf := row2[:20]
	secondHalf := row2[20:]
	if strings.Count(firstHalf, "#") < 18 {
		t.Errorf("thread 2 first half should be Running: %q", firstHalf)
	}
	if strings.Count(secondHalf, ".") < 18 {
		t.Errorf("thread 2 second half should be Sync: %q", secondHalf)
	}
}

// TestRenderReadsTimelineOnly: the chart is a function of the timeline
// alone. Dropping the events (as a trimmed record has fewer), splitting an
// interval in two, adding empty ones or listing the threads in another
// order draws the same chart.
func TestRenderReadsTimelineOnly(t *testing.T) {
	r := sampleRecord()
	r.NThreads = 2
	r.Timeline = append(r.Timeline, IntervalRecord{Tid: 1, StartNs: 100, EndNs: 2000, State: Sched},
		IntervalRecord{Tid: 1, StartNs: 2000, EndNs: 4200, State: Running})
	want := r.Render(30)
	r.Events = nil
	r.Timeline = []IntervalRecord{
		{Tid: 1, StartNs: 2000, EndNs: 3000, State: Running},
		{Tid: 0, StartNs: 100, EndNs: 104, State: Sched},
		{Tid: 0, StartNs: 104, EndNs: 500, State: Running},
		{Tid: 0, StartNs: 500, EndNs: 500, State: Sync},
		{Tid: 0, StartNs: 500, EndNs: 804, State: Running},
		{Tid: 1, StartNs: 3000, EndNs: 4200, State: Running},
		{Tid: 0, StartNs: 804, EndNs: 4200, State: Sync},
		{Tid: 1, StartNs: 100, EndNs: 2000, State: Sched},
		{Tid: 1, StartNs: 4300, EndNs: 4250, State: Sync},
	}
	if got := r.Render(30); got != want {
		t.Errorf("the same timeline drew\n%s\nand\n%s", want, got)
	}
}

func TestRenderDefaultWidth(t *testing.T) {
	rec := timedRecorder(t, 1)
	rec.Add(0, 0, 100, Running)
	out := rec.Record().Render(0) // falls back to 80 columns
	lines := strings.Split(out, "\n")
	row := lines[1]
	inner := row[strings.Index(row, "|")+1 : strings.LastIndex(row, "|")]
	if len(inner) != 80 {
		t.Errorf("default width = %d, want 80", len(inner))
	}
}

func TestStateString(t *testing.T) {
	if Running.String() != "Running" || Sched.String() != "Sched" || Sync.String() != "Sync" {
		t.Error("State.String() wrong")
	}
	if State(9).String() != "State(9)" {
		t.Errorf("unknown state: %q", State(9).String())
	}
}

// TestAddPanicsOnBadTid: a tid outside the run's threads panics with a
// message that names it, and so does every tid on an untimed recorder or
// before BeginRun, where the recorder has no thread to add to.
func TestAddPanicsOnBadTid(t *testing.T) {
	untimed := NewRecorder()
	if err := untimed.BeginRun(RunMeta{Engine: "sim", NThreads: 2, Binding: "BS"}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rec  *Recorder
		tids []int
	}{
		{"timed", timedRecorder(t, 2), []int{-1, 2, 100}},
		{"untimed", untimed, []int{0, 1}},
		{"not begun", NewTimedRecorder(), []int{0}},
	} {
		for _, tid := range c.tids {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s: Add(tid=%d) did not panic", c.name, tid)
						return
					}
					msg, ok := r.(string)
					if !ok || !strings.Contains(msg, "out of range") || !strings.Contains(msg, "tid") {
						t.Errorf("%s: Add(tid=%d) panic %v lacks a descriptive message", c.name, tid, r)
					}
				}()
				c.rec.Add(tid, 0, 10, Running)
			}()
		}
	}
}

func TestAllSyncThreads(t *testing.T) {
	// Threads that never ran anything (e.g. a zero-trip loop's barrier wait)
	// must not divide by zero or report phantom imbalance.
	rec := timedRecorder(t, 3)
	for tid := 0; tid < 3; tid++ {
		rec.Add(tid, 0, 500, Sync)
	}
	r := rec.Record()
	if got := stateNs(r, 1, Running); got != 0 {
		t.Errorf("thread 1 Running = %v, want 0", got)
	}
	out := r.Render(20)
	if got := summary(out); got != "imbalance: 0.0%   sched overhead: 0.00%" {
		t.Errorf("all-Sync summary %q, want zeros", got)
	}
	if !strings.Contains(out, "....................") {
		t.Errorf("all-Sync render should be dotted: %q", out)
	}
}

func TestSingleMergedInterval(t *testing.T) {
	// Contiguous same-state Adds collapse to ONE stored interval, so the
	// serialized timeline of a merged run stays minimal.
	rec := timedRecorder(t, 1)
	rec.Add(0, 0, 10, Running)
	rec.Add(0, 10, 25, Running)
	rec.Add(0, 25, 40, Running)
	if ivs := rec.Record().Timeline; len(ivs) != 1 || ivs[0] != (IntervalRecord{Tid: 0, StartNs: 0, EndNs: 40, State: Running}) {
		t.Errorf("intervals = %+v, want one merged [0,40) Running", ivs)
	}
}
