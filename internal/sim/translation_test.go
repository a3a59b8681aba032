package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/amp"
)

// translationStarts are where the shifted runs start: next to zero, the
// golden cases' 7_777, past 2^40, one past 2^53 (where float64(nowNs) no
// longer holds the integer, so a scheduler that converts the stamp instead of
// a difference is off by one) and near the top of int64.
var translationStarts = []int64{7, 7_777, 1<<40 + 12345, 1<<53 + 1, 1<<61 + 3}

// shiftedBack returns r as its run would have reported it had everything
// happened d earlier: the three fields that hold a time move, the rest (counts,
// durations, estimates, energy, the metrics snapshot) is taken as is.
func shiftedBack(r LoopResult, d int64) LoopResult {
	c := r.clone()
	c.Start, c.End = c.Start-d, c.End-d
	for i := range c.Finish {
		c.Finish[i] -= d
	}
	return c
}

// TestRunTimeTranslation pins the contract RunProgram spends on a phase's
// repetitions ("Repetitions" in the package comment): a run is a function of
// its Config and specs translated by startNs, and by the Arrive stamps on a
// fleet. Every golden case — zoo platform x schedule family x cost model x
// binding — runs at start 0 and at each of translationStarts, as a team and as
// a fleet of four staggered loops under each fairness policy whose stamps move
// with the start; the shifted run, shifted back, must equal the run at 0 in
// every field.
//
// A model change that lets an execution depend on when it starts (a throttle
// at an absolute time, noise keyed by the clock) fails here first; one that
// lets it depend on which repetition it is fails exps.TestRunProgramDifferential.
func TestRunTimeTranslation(t *testing.T) {
	for _, plName := range amp.Names() {
		for _, sc := range goldenSchedules {
			for _, cm := range goldenCosts {
				for _, b := range []amp.Binding{amp.BindBS, amp.BindSB} {
					pl, _ := amp.Lookup(plName)
					cfg := Config{Platform: pl, NThreads: pl.NumCores(), Binding: b, Factory: sc.f, Metrics: true}
					name := fmt.Sprintf("%s/%s/%s/%s", plName, sc.name, cm.name, b)

					spec := LoopSpec{Name: "golden", NI: 3001, Profile: amp.Profile{ILP: 0.7, MemIntensity: 0.2}, Cost: cm.c(3001)}
					team, err := RunLoop(cfg, spec, 0)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, d := range translationStarts {
						got, err := RunLoop(cfg, spec, d)
						if err != nil {
							t.Fatalf("%s: start %d: %v", name, d, err)
						}
						if got, want := shiftedBack(got, d), team.clone(); !reflect.DeepEqual(got, want) {
							t.Errorf("%s: team at start %d is not the team at 0 translated:\n got %+v\nwant %+v", name, d, got, want)
						}
					}

					for _, pol := range goldenPolicies {
						fleet, err := RunLoops(cfg, goldenFleetSpecs(cm.c, 0), pol.p(), 0)
						if err != nil {
							t.Fatalf("%s/%s: %v", name, pol.name, err)
						}
						for _, d := range translationStarts {
							got, err := RunLoops(cfg, goldenFleetSpecs(cm.c, d), pol.p(), d)
							if err != nil {
								t.Fatalf("%s/%s: start %d: %v", name, pol.name, d, err)
							}
							for li := range got {
								if got, want := shiftedBack(got[li], d), fleet[li].clone(); !reflect.DeepEqual(got, want) {
									t.Errorf("%s/%s: loop %d of the fleet at start %d is not the one at 0 translated:\n got %+v\nwant %+v",
										name, pol.name, li, d, got, want)
								}
							}
						}
					}
					if t.Failed() {
						return // one case in full says enough; 240 of them say no more
					}
				}
			}
		}
	}
}
