package core

import "testing"

// newSampler returns a sampler armed for a loop of the given shape at epoch 0.
func newSampler(types, threads int) *sampler {
	s := new(sampler)
	s.reset(LoopInfo{NThreads: threads, NumTypes: types}, 0)
	return s
}

// report files one measurement of v for core type typ against the given
// epoch, through a window of one iteration opened at 0, and returns whether
// it was the epoch's last.
func report(s *sampler, epoch uint32, typ int, v int64) bool {
	w := window{epoch: epoch}
	var asg Assign
	return s.close(&w, typ, v, 1, 1, &asg)
}

func TestSamplerAverage(t *testing.T) {
	s := newSampler(2, 4)
	for i, c := range []struct {
		typ  int
		v    int64
		last bool
	}{{0, 100, false}, {0, 300, false}, {1, 800, false}, {1, 1200, true}} {
		if last := report(s, 0, c.typ, c.v); last != c.last {
			t.Errorf("report %d: last = %v, want %v", i, last, c.last)
		}
	}
	if avg, ok := s.avg(0); !ok || avg != 200 {
		t.Errorf("avg(0) = %v, %v; want 200, true", avg, ok)
	}
	if avg, ok := s.avg(1); !ok || avg != 1000 {
		t.Errorf("avg(1) = %v, %v; want 1000, true", avg, ok)
	}
}

func TestSamplerEmptyType(t *testing.T) {
	s := newSampler(3, 2)
	report(s, 0, 0, 10)
	report(s, 0, 0, 20)
	if _, ok := s.avg(2); ok {
		t.Error("avg of a core type without a sample reported ok")
	}
	if sf := s.sampledSF(make([]float64, 3)); sf[2] != 1 {
		t.Errorf("SF of a core type without a sample = %v, want 1", sf[2])
	}
}

// TestSamplerAdvance: the last measurer's advance publishes the next epoch
// with every thread outstanding and empty accumulators, which is how each
// AID-dynamic phase doubles as the next sampling round.
func TestSamplerAdvance(t *testing.T) {
	s := newSampler(2, 2)
	report(s, 0, 0, 50)
	if !report(s, 0, 1, 70) {
		t.Fatal("the second of two reports is not the last")
	}
	s.advance(1)
	if e := s.epoch(); e != 1 {
		t.Fatalf("epoch after advance(1) = %d", e)
	}
	if _, ok := s.avg(0); ok {
		t.Error("avg(0) ok after advance")
	}
	if report(s, 1, 0, 10) || !report(s, 1, 1, 10) {
		t.Error("after advance the second of two reports is not the last")
	}
}

// TestSamplerRearmInPlace: reset re-arms for another loop's shape, in place
// when the accumulators are large enough, and forgets every sample.
func TestSamplerRearmInPlace(t *testing.T) {
	s := newSampler(3, 4)
	report(s, 0, 2, 100)
	sums := &s.sumNs[0]
	s.reset(LoopInfo{NThreads: 2, NumTypes: 2}, 0)
	if &s.sumNs[0] != sums {
		t.Error("reset to fewer core types reallocated the accumulators")
	}
	if _, ok := s.avg(1); ok {
		t.Error("reset kept samples of the previous loop")
	}
	if report(s, 0, 0, 10) || !report(s, 0, 1, 30) {
		t.Error("after a reset to two threads the second of two reports is not the last")
	}
	s.reset(LoopInfo{NThreads: 1, NumTypes: 5}, 0)
	if avg, ok := s.avg(4); ok || avg != 0 {
		t.Error("reset to more core types did not start them empty")
	}
	if !report(s, 0, 4, 7) {
		t.Error("after a reset to one thread its only report is not the last")
	}
	s.reset(LoopInfo{NThreads: 3, NumTypes: 2}, 1)
	if e := s.epoch(); e != 1 {
		t.Errorf("reset at epoch 1 armed epoch %d", e)
	}
}

// TestSamplerWindow pins the clock-stamp rule every AID scheduler shares:
// open and close charge one clock read each and restamp none, close restarts
// the window where it ended, and what close files is elapsed·scale/n —
// elapsed itself when scale equals n or is not positive, nothing when n is 0.
func TestSamplerWindow(t *testing.T) {
	s := newSampler(1, 8)
	var w window
	var asg Assign
	s.open(&w, 1000, &asg)
	if w.lastTS != 1000 || asg.Timestamps != 1 {
		t.Fatalf("open: lastTS %d, Timestamps %d; want 1000, 1", w.lastTS, asg.Timestamps)
	}
	s.restamp(&w, 2000)
	if w.lastTS != 2000 || asg.Timestamps != 1 {
		t.Fatalf("restamp: lastTS %d, Timestamps %d; want 2000 and no charge", w.lastTS, asg.Timestamps)
	}
	if s.close(&w, 0, 2500, 0, sampleScale, &asg) {
		t.Error("a window over no iterations reported last")
	}
	if w.lastTS != 2500 || asg.Timestamps != 2 {
		t.Errorf("empty close: lastTS %d, Timestamps %d; want 2500, 2", w.lastTS, asg.Timestamps)
	}
	if _, ok := s.avg(0); ok {
		t.Error("an empty window filed a measurement")
	}
	for _, c := range []struct {
		name              string
		elapsed, n, scale int64
		want              int64
	}{
		{"sampling", 3000, 3, sampleScale, 1024000},
		{"sampling, n = scale", 7, sampleScale, sampleScale, 7},
		{"phase rescaled to nominal", 600, 3, 5, 1000},
		{"phase at nominal", 600, 5, 5, 600},
		{"no nominal", 600, 3, 0, 600},
	} {
		before := asg.Timestamps
		s.clear()
		s.close(&w, 0, w.lastTS+c.elapsed, c.n, c.scale, &asg)
		if filed, _ := s.avg(0); filed != float64(c.want) || asg.Timestamps != before+1 {
			t.Errorf("%s: filed %v with %d charge(s), want %d with 1", c.name, filed, asg.Timestamps-before, c.want)
		}
	}
}
