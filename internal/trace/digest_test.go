package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/amp"
)

// digestRecord is a valid hand-built record around the given streams.
func digestRecord(t *testing.T, nthreads int, loops []LoopRecord, evs []ChunkEvent) *Record {
	t.Helper()
	for i := range loops {
		loops[i].Index = i
	}
	r := &Record{Version: RecordVersion, Engine: "sim", NThreads: nthreads, Binding: "BS",
		Platform: PlatformRecord{Clusters: []amp.Cluster{{NumCores: nthreads}}}, Loops: loops, Events: evs}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDigestTwoLoopsUntimed(t *testing.T) {
	r := digestRecord(t, 3, []LoopRecord{{Name: "alpha", NI: 16, Scheduler: "aid-dynamic"}, {Name: "beta", NI: 8, Scheduler: "dynamic"}},
		[]ChunkEvent{
			{TimeNs: 1000, Tid: 0, Loop: 0, Lo: 0, Hi: 10, Shard: 0, ExecNs: 300, PoolAccesses: 2},
			{TimeNs: 1000, Tid: 1, Loop: 0, Lo: 10, Hi: 16, Shard: 1, ExecNs: 600, PoolAccesses: 1},
			{TimeNs: 1300, Tid: 0, Loop: 0, Retire: true, PoolAccesses: 1},
			{TimeNs: 1600, Tid: 1, Loop: 0, Shard: 1, Retire: true, PoolAccesses: 1},
			{TimeNs: 1700, Tid: 0, Loop: 1, Lo: 0, Hi: 4, Shard: 0, ExecNs: 200, PoolAccesses: 1},
			{TimeNs: 1700, Tid: 2, Loop: 1, Lo: 4, Hi: 8, Shard: 1, ExecNs: 100, PoolAccesses: 1},
			{TimeNs: 1800, Tid: 2, Loop: 1, Shard: 1, Retire: true},
		})
	r.StartNs = 1000 // no makespan: the span is the events' extent
	r.Phases = []PhaseEvent{{Loop: 0, Kind: "r-initial"}, {Loop: 0, Kind: "r-smoothed"}, {Loop: 0, Kind: "tail-switch"}, {Loop: 0, Kind: "r-smoothed"}}
	r.SFSamples = []SFSample{{Loop: 0, SF: []float64{1.5, 1}}, {Loop: 0, SF: []float64{1.7, 1}}, {Loop: 0, SF: []float64{1.8, 1}}}

	d := r.Digest()
	if d.Timed || d.StartNs != 1000 || d.SpanNs != 900 {
		t.Fatalf("timed=%v start=%d span=%d, want false 1000 900", d.Timed, d.StartNs, d.SpanNs)
	}
	want := []ThreadDigest{
		{Tid: 0, Type: 0, BusyNs: 500, UtilPct: 100 * 500.0 / 900, Chunks: 2, Iters: 14, PoolAccesses: 4},
		{Tid: 1, Type: 1, BusyNs: 600, UtilPct: 100 * 600.0 / 900, Chunks: 1, Iters: 6, PoolAccesses: 2},
		{Tid: 2, Type: 1, BusyNs: 100, UtilPct: 100 * 100.0 / 900, Chunks: 1, Iters: 4, PoolAccesses: 1},
	}
	if !reflect.DeepEqual(d.Threads, want) {
		t.Errorf("threads:\n got %+v\nwant %+v", d.Threads, want)
	}
	if want := 100 * 500.0 / 600; d.ImbalancePct != want {
		t.Errorf("imbalance %v, want %v", d.ImbalancePct, want)
	}
	alpha := LoopDigest{Name: "alpha", Scheduler: "aid-dynamic", NI: 16, Iters: 16, Chunks: 2, StartNs: 1000, EndNs: 1600,
		PhaseCounts: map[string]int{"r-initial": 1, "r-smoothed": 2, "tail-switch": 1},
		PhaseKinds:  []string{"r-initial", "r-smoothed", "tail-switch"},
		SFFirst:     []float64{1.5, 1}, SFLast: []float64{1.8, 1}, SFSamples: 3}
	beta := LoopDigest{Name: "beta", Scheduler: "dynamic", NI: 8, Iters: 8, Chunks: 2, StartNs: 1700, EndNs: 1900,
		PhaseCounts: map[string]int{}}
	if !reflect.DeepEqual(d.Loops, []LoopDigest{alpha, beta}) {
		t.Errorf("loops:\n got %+v\nwant %+v", d.Loops, []LoopDigest{alpha, beta})
	}
	if tot := d.Total(); tot != (ThreadDigest{BusyNs: 1200, Chunks: 4, Iters: 24, PoolAccesses: 7}) {
		t.Errorf("total %+v", tot)
	}
}

func TestDigestTimedMatchesTrace(t *testing.T) {
	r := digestRecord(t, 2, []LoopRecord{{Name: "ep-main", NI: 12}},
		[]ChunkEvent{
			{TimeNs: 0, Tid: 0, Loop: 0, Lo: 0, Hi: 8, ExecNs: 600, PoolAccesses: 1},
			{TimeNs: 0, Tid: 1, Loop: 0, Lo: 8, Hi: 12, Shard: 1, ExecNs: 300, PoolAccesses: 1},
			{TimeNs: 650, Tid: 0, Loop: 0, Retire: true, PoolAccesses: 1},
			{TimeNs: 400, Tid: 1, Loop: 0, Shard: 1, Retire: true, PoolAccesses: 1},
		})
	r.MakespanNs = 1000
	tl := timedRecorder(t, 2)
	tl.Add(0, 0, 50, Sched)
	tl.Add(0, 50, 650, Running)
	tl.Add(0, 650, 700, Sched)
	tl.Add(0, 700, 1000, Sync)
	tl.Add(1, 0, 100, Sched)
	tl.Add(1, 100, 400, Running)
	tl.Add(1, 400, 1000, Sync)
	r.Timeline = tl.Record().Timeline

	d := r.Digest()
	if !d.Timed || d.SpanNs != 1000 {
		t.Fatalf("timed=%v span=%d, want true 1000", d.Timed, d.SpanNs)
	}
	for tid, want := range [][3]int64{{600, 100, 300}, {300, 100, 600}} {
		th := d.Threads[tid]
		if got := [3]int64{th.BusyNs, th.SchedNs, th.SyncNs}; got != want {
			t.Errorf("t%d busy/sched/sync %v, want %v", tid, got, want)
		}
		if run := stateNs(r, tid, Running); th.BusyNs != run {
			t.Errorf("t%d busy %d, timeline Running %d", tid, th.BusyNs, run)
		}
	}
	if got := summary(r.Render(20)); d.ImbalancePct != 50 || !strings.HasPrefix(got, "imbalance: 50.0%") {
		t.Errorf("imbalance: digest %v, chart %q, want 50", d.ImbalancePct, got)
	}
	if d.Loops[0].SFFirst != nil || d.Loops[0].SFSamples != 0 {
		t.Errorf("a loop without samples has an SF trajectory: %+v", d.Loops[0])
	}
}

func TestDigestImbalanceEdges(t *testing.T) {
	idle := digestRecord(t, 2, []LoopRecord{{Name: "x", NI: 4}},
		[]ChunkEvent{{Tid: 0, Loop: 0, Lo: 0, Hi: 4, ExecNs: 10}, {Tid: 1, Loop: 0, Retire: true}})
	if got := idle.Digest().ImbalancePct; got != 100 {
		t.Errorf("a thread without grants: imbalance %v, want 100", got)
	}
	empty := digestRecord(t, 2, nil, nil)
	if d := empty.Digest(); d.ImbalancePct != 0 || d.SpanNs != 0 || len(d.Threads) != 2 {
		t.Errorf("empty record: %+v", d)
	}
}
