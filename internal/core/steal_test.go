package core

import (
	"testing"
)

func TestWorkStealValidation(t *testing.T) {
	info := twoTypeInfo(100, 2, 2)
	if _, err := NewWorkSteal(info, 0); err == nil {
		t.Error("chunk 0 accepted")
	}
	if _, err := NewWorkSteal(twoTypeInfo(-1, 2, 2), 4); err == nil {
		t.Error("bad info accepted")
	}
	w, err := NewWorkSteal(info, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "work-steal" {
		t.Errorf("Name() = %q", w.Name())
	}
}

func TestWorkStealCoverage(t *testing.T) {
	for _, ni := range []int64{0, 1, 7, 100, 4096} {
		info := twoTypeInfo(ni, 2, 2)
		w, _ := NewWorkSteal(info, 8)
		virtualExec(t, w, info, []int64{100, 300})
	}
}

func TestWorkStealAbsorbsAsymmetry(t *testing.T) {
	// On an AMP, big threads drain their ranges and then steal from small
	// threads: the finish times balance without any SF estimation.
	info := twoTypeInfo(8000, 2, 2)
	w, _ := NewWorkSteal(info, 16)
	counts, finish := virtualExec(t, w, info, []int64{100, 300})
	if w.Steals() == 0 {
		t.Fatal("no steals on an asymmetric platform")
	}
	bigAvg := float64(counts[0]+counts[1]) / 2
	smallAvg := float64(counts[2]+counts[3]) / 2
	if bigAvg < smallAvg*1.8 {
		t.Errorf("big threads should end up with far more iterations: big %v small %v", bigAvg, smallAvg)
	}
	var minF, maxF = finish[0], finish[0]
	for _, f := range finish[1:] {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	if float64(maxF-minF) > 0.1*float64(maxF) {
		t.Errorf("work stealing left imbalance: %v", finish)
	}
}

func TestWorkStealNoStealsOnSymmetricUniform(t *testing.T) {
	// Equal speeds and uniform cost: the even split needs no stealing
	// beyond boundary effects.
	info := twoTypeInfo(8000, 2, 2)
	w, _ := NewWorkSteal(info, 16)
	virtualExec(t, w, info, []int64{200, 200})
	if w.Steals() > 2 {
		t.Errorf("symmetric uniform run performed %d steals, want ~0", w.Steals())
	}
}

func TestWorkStealVsAIDStatic(t *testing.T) {
	// The §4.3 trade-off: on a uniform loop, work stealing approaches
	// AID-static's completion time (both balance the AMP), but performs
	// many more synchronized operations.
	info := twoTypeInfo(8000, 2, 2)
	countAccesses := func(s Scheduler) (finishMax int64, accesses int) {
		clock := make([]int64, info.NThreads)
		active := make([]bool, info.NThreads)
		for i := range active {
			active[i] = true
		}
		perIter := []int64{100, 300}
		for {
			tid := -1
			for i := range clock {
				if active[i] && (tid == -1 || clock[i] < clock[tid]) {
					tid = i
				}
			}
			if tid == -1 {
				break
			}
			asg, ok := s.Next(tid, clock[tid])
			accesses += int(asg.PoolAccesses)
			if !ok {
				active[tid] = false
				continue
			}
			clock[tid] += asg.N() * perIter[info.TypeOf(tid)]
		}
		for _, c := range clock {
			if c > finishMax {
				finishMax = c
			}
		}
		return finishMax, accesses
	}
	ws, _ := NewWorkSteal(info, 16)
	aid, _ := NewAIDStatic(info, 16)
	tSteal, accSteal := countAccesses(ws)
	tAID, accAID := countAccesses(aid)
	if ratio := float64(tSteal) / float64(tAID); ratio > 1.1 {
		t.Errorf("work-steal completion %.2fx AID-static's; should be comparable", ratio)
	}
	if accSteal <= accAID {
		t.Errorf("work-steal used %d synchronized ops vs AID-static's %d; expected more", accSteal, accAID)
	}
}

func TestWorkStealMigrateIsNoOp(t *testing.T) {
	info := twoTypeInfo(4000, 2, 2)
	w, _ := NewWorkSteal(info, 8)
	var m Migratable = w
	m.Migrate(0, 1, 0) // must not panic or affect coverage
	virtualExec(t, w, info, []int64{100, 300})
}
