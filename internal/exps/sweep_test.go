package exps

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/workloads"
)

// withProcs runs f under GOMAXPROCS n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// goid names the calling goroutine: the number in the first line of its
// stack trace, "goroutine 7 [running]:".
func goid() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestSweepResultsIndependentOfWorkers: a sweep's result does not depend on
// how many workers ran it, for an experiment of every cell shape (programs on
// the grid, programs plus the offline-SF cell, single loops).
func TestSweepResultsIndependentOfWorkers(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() (any, error)
	}{
		{"Fig6", func() (any, error) { return RunFig6(amp.PlatformA()) }},
		{"Fig8", func() (any, error) { return RunFig8() }},
		{"Zoo", func() (any, error) { return RunZoo() }},
		{"Fig9", func() (any, error) { return RunFig9(amp.PlatformA()) }},
	} {
		var got [2]any
		for i, procs := range []int{1, 4} {
			withProcs(procs, func() {
				var err error
				if got[i], err = c.run(); err != nil {
					t.Fatalf("%s under GOMAXPROCS=%d: %v", c.name, procs, err)
				}
			})
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4:\n%+v\n%+v", c.name, got[0], got[1])
		}
	}
}

// TestSweepFirstErrorByIndex: with two failing cells the sweep reports the
// lower-indexed one every time, and leaves no goroutine behind.
func TestSweepFirstErrorByIndex(t *testing.T) {
	ep, _ := workloads.ByName("EP")
	ok := Scheme{Label: "ok", Sched: core.Schedule{Kind: core.KindDynamic}, Binding: amp.BindBS}
	// A kind no scheduler has makes these factories fail.
	bad1 := Scheme{Label: "bad-1", Sched: core.Schedule{Kind: core.Kind(99)}, Binding: amp.BindBS}
	bad2 := Scheme{Label: "bad-2", Sched: core.Schedule{Kind: core.Kind(98)}, Binding: amp.BindBS}
	schemes := []Scheme{ok, ok, bad1, ok, ok, bad2, ok, ok}
	withProcs(4, func() {
		before := runtime.NumGoroutine()
		for run := 0; run < 20; run++ {
			_, err := runGrid(amp.PlatformA(), []workloads.Workload{ep}, schemes)
			if err == nil || !strings.Contains(err.Error(), "EP under bad-1") {
				t.Fatalf("run %d: error %v, want that of the bad-1 cell", run, err)
			}
		}

		// The same when the higher cell is certain to fail first: cell 2
		// fails only once cell 5 has.
		errLow, errHigh := errors.New("low"), errors.New("high")
		highFailed := make(chan struct{})
		_, err := sweep(8, func(i int) (int, error) {
			switch i {
			case 2:
				<-highFailed
				return 0, errLow
			case 5:
				defer close(highFailed)
				return 0, errHigh
			}
			return i, nil
		})
		if err != errLow {
			t.Errorf("error %v, want the lower-indexed cell's", err)
		}

		// sweep returns after its workers' last statement, not after their
		// exit; give the scheduler a moment to reap them.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines before the sweeps, %d after", before, after)
		}
	})
}

// TestSweepInline: a sweep with one worker — no cell, one cell, or
// GOMAXPROCS=1 — is a loop on the caller's goroutine, in index order.
func TestSweepInline(t *testing.T) {
	caller := goid()
	cell := func(i int) (string, error) { return fmt.Sprint(i, " on ", goid()), nil }
	for _, c := range []struct{ procs, n int }{{4, 0}, {4, 1}, {1, 5}} {
		withProcs(c.procs, func() {
			got, err := sweep(c.n, cell)
			if err != nil || len(got) != c.n {
				t.Fatalf("GOMAXPROCS=%d n=%d: %d results, error %v", c.procs, c.n, len(got), err)
			}
			for i, g := range got {
				if want := fmt.Sprint(i, " on ", caller); g != want {
					t.Errorf("GOMAXPROCS=%d n=%d: cell %d ran as %q, want %q", c.procs, c.n, i, g, want)
				}
			}
		})
	}
	// The serial run stops at the first failure, which is the lowest.
	var ran []int
	withProcs(1, func() {
		_, err := sweep(5, func(i int) (int, error) {
			ran = append(ran, i)
			if i >= 2 {
				return 0, fmt.Errorf("cell %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 2" || !reflect.DeepEqual(ran, []int{0, 1, 2}) {
			t.Errorf("serial sweep ran cells %v and returned %v; want 0 1 2 and cell 2's error", ran, err)
		}
	})
}
