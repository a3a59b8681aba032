package trace

import (
	"strings"
	"testing"
)

func TestNewPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAddAndQuery(t *testing.T) {
	tr := New(2)
	tr.Add(0, 0, 100, Running)
	tr.Add(0, 100, 120, Sched)
	tr.Add(0, 120, 200, Sync)
	tr.Add(1, 0, 200, Running)
	if got := tr.EndTime(); got != 200 {
		t.Errorf("EndTime = %d, want 200", got)
	}
	if got := tr.TimeIn(0, Running); got != 100 {
		t.Errorf("TimeIn(0,Running) = %d, want 100", got)
	}
	if got := tr.TimeIn(0, Sched); got != 20 {
		t.Errorf("TimeIn(0,Sched) = %d, want 20", got)
	}
	if got := tr.TimeIn(1, Running); got != 200 {
		t.Errorf("TimeIn(1,Running) = %d, want 200", got)
	}
	if got := tr.NThreads(); got != 2 {
		t.Errorf("NThreads = %d", got)
	}
}

func TestAddMergesAdjacentSameState(t *testing.T) {
	tr := New(1)
	tr.Add(0, 0, 50, Running)
	tr.Add(0, 50, 100, Running)
	if got := len(tr.Intervals(0)); got != 1 {
		t.Errorf("adjacent same-state intervals not merged: %d intervals", got)
	}
	tr.Add(0, 100, 150, Sync)
	if got := len(tr.Intervals(0)); got != 2 {
		t.Errorf("state change should create a new interval: %d", got)
	}
}

func TestAddDropsEmpty(t *testing.T) {
	tr := New(1)
	tr.Add(0, 100, 100, Running)
	tr.Add(0, 100, 90, Running)
	if got := len(tr.Intervals(0)); got != 0 {
		t.Errorf("empty/negative intervals recorded: %d", got)
	}
}

func TestAddPanicsOnOverlap(t *testing.T) {
	tr := New(1)
	tr.Add(0, 0, 100, Running)
	defer func() {
		if recover() == nil {
			t.Error("overlapping Add did not panic")
		}
	}()
	tr.Add(0, 50, 150, Sync)
}

func TestUtilizationAndImbalance(t *testing.T) {
	tr := New(2)
	// Thread 0 runs the whole time; thread 1 runs half then waits.
	tr.Add(0, 0, 1000, Running)
	tr.Add(1, 0, 500, Running)
	tr.Add(1, 500, 1000, Sync)
	if got := tr.TimeIn(0, Running); got != 1000 {
		t.Errorf("TimeIn(0, Running) = %v", got)
	}
	if got := tr.TimeIn(1, Running); got != 500 {
		t.Errorf("TimeIn(1, Running) = %v", got)
	}
	if got := tr.ImbalancePct(); got != 50 {
		t.Errorf("ImbalancePct = %v, want 50", got)
	}
}

func TestImbalanceBalanced(t *testing.T) {
	tr := New(4)
	for tid := 0; tid < 4; tid++ {
		tr.Add(tid, 0, 1000, Running)
	}
	if got := tr.ImbalancePct(); got != 0 {
		t.Errorf("balanced trace ImbalancePct = %v", got)
	}
}

func TestSchedOverheadPct(t *testing.T) {
	tr := New(1)
	tr.Add(0, 0, 90, Running)
	tr.Add(0, 90, 100, Sched)
	if got := tr.SchedOverheadPct(); got != 10 {
		t.Errorf("SchedOverheadPct = %v, want 10", got)
	}
}

func TestEmptyTraceMetrics(t *testing.T) {
	tr := New(2)
	if tr.EndTime() != 0 || tr.ImbalancePct() != 0 || tr.SchedOverheadPct() != 0 || tr.TimeIn(0, Running) != 0 {
		t.Error("empty trace should report zero metrics")
	}
	out := tr.Render(40)
	if !strings.Contains(out, "time 0 .. 0 ns") {
		t.Errorf("empty render missing header: %q", out)
	}
}

func TestRenderShape(t *testing.T) {
	tr := New(2)
	tr.Add(0, 0, 1000, Running)
	tr.Add(1, 0, 500, Running)
	tr.Add(1, 500, 1000, Sync)
	out := tr.Render(40)
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

func TestRenderDefaultWidth(t *testing.T) {
	tr := New(1)
	tr.Add(0, 0, 100, Running)
	out := tr.Render(0) // falls back to 80 columns
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

func TestAddPanicsOnBadTid(t *testing.T) {
	for _, tid := range []int{-1, 2, 100} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Add(tid=%d) did not panic", tid)
					return
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "out of range") || !strings.Contains(msg, "tid") {
					t.Errorf("Add(tid=%d) panic %v lacks a descriptive message", tid, r)
				}
			}()
			New(2).Add(tid, 0, 10, Running)
		}()
	}
}

func TestAllSyncThreads(t *testing.T) {
	// Threads that never ran anything (e.g. a zero-trip loop's barrier wait)
	// must not divide by zero or report phantom imbalance.
	tr := New(3)
	for tid := 0; tid < 3; tid++ {
		tr.Add(tid, 0, 500, Sync)
	}
	if got := tr.ImbalancePct(); got != 0 {
		t.Errorf("ImbalancePct = %v, want 0 for all-Sync trace", got)
	}
	if got := tr.SchedOverheadPct(); got != 0 {
		t.Errorf("SchedOverheadPct = %v, want 0", got)
	}
	if got := tr.TimeIn(1, Running); got != 0 {
		t.Errorf("TimeIn(1, Running) = %v, want 0", got)
	}
	out := tr.Render(20)
	if !strings.Contains(out, "....................") {
		t.Errorf("all-Sync render should be dotted: %q", out)
	}
}

func TestSingleMergedInterval(t *testing.T) {
	// Contiguous same-state Adds collapse to ONE stored interval, so the
	// serialized timeline of a merged trace stays minimal.
	tr := New(1)
	tr.Add(0, 0, 10, Running)
	tr.Add(0, 10, 25, Running)
	tr.Add(0, 25, 40, Running)
	if ivs := tr.Intervals(0); len(ivs) != 1 || ivs[0] != (Interval{Start: 0, End: 40, State: Running}) {
		t.Errorf("intervals = %+v, want one merged [0,40) Running", ivs)
	}
}
