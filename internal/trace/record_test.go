package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/amp"
	"repro/internal/core"
)

// TestChunkEventLayout pins a recorded event at 72 bytes, and its cost
// fields at the types of the core.AssignCost they record: a record holds
// what the scheduler reported, in the scheduler's widths. A field added to
// ChunkEvent is measured here first, as core.Assign's are in
// TestAssignLayout.
func TestChunkEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(ChunkEvent{}); n != 72 {
		t.Errorf("ChunkEvent is %d bytes, want 72", n)
	}
	ev, cost := reflect.TypeOf(ChunkEvent{}), reflect.TypeOf(core.AssignCost{})
	for _, name := range []string{"Origin", "PoolAccesses", "Timestamps"} {
		got, _ := ev.FieldByName(name)
		want, _ := cost.FieldByName(name)
		if got.Type != want.Type {
			t.Errorf("ChunkEvent.%s is %v, core.AssignCost.%s is %v", name, got.Type, name, want.Type)
		}
	}
}

// sampleRecord builds a small, fully populated record by hand.
func sampleRecord() *Record {
	return &Record{
		Version:  RecordVersion,
		Engine:   "sim",
		Platform: PlatformRecordOf(amp.PlatformA()),
		NThreads: 4,
		Binding:  "BS",
		Policy:   "wrr",
		StartNs:  100,
		// Absolute times; makespan is a duration.
		MakespanNs: 4200,
		Migrations: []MigrationRecord{{AtNs: 900, Tid: 2, ToCPU: 1}},
		Loops: []LoopRecord{
			{Name: "ep-main", NI: 128, Weight: 2, Scheduler: "aid-dynamic",
				Schedule: "aid-dynamic,1,5", Profile: amp.Profile{ILP: 0.25, MemIntensity: 0.05, FootprintMB: 0.1},
				Cost: &CostRecord{Kind: "block", Base: 120000, Amp: 0.35, BlockLen: 256, Seed: 0xE9}},
			{Name: "is-l0", NI: 64, Weight: 1, ArriveNs: 108, Scheduler: "dynamic", Schedule: "dynamic,4",
				Profile: amp.Profile{ILP: 0.3, MemIntensity: 0.55, FootprintMB: 0.1},
				Cost:    &CostRecord{Kind: "uniform", Base: 230}},
		},
		Events: []ChunkEvent{
			{Seq: 0, TimeNs: 104, Tid: 0, Loop: 0, Lo: 0, Hi: 16, Shard: 0, Cost: 1234.5, ExecNs: 700, PoolAccesses: 1, Timestamps: 1},
			{Seq: 1, TimeNs: 110, Tid: 1, Loop: 1, Lo: 0, Hi: 4, Shard: 1, Cost: 920, ExecNs: 300, PoolAccesses: 2},
			{Seq: 2, TimeNs: 900, Tid: 0, Loop: 0, Retire: true, PoolAccesses: 1},
		},
		Phases: []PhaseEvent{
			{TimeNs: 300, Tid: 3, Loop: 0, Epoch: 1, Kind: "r-initial", SF: []float64{2.5, 1}},
			{TimeNs: 800, Tid: 1, Loop: 0, Epoch: 2, Kind: "tail-switch"},
			{TimeNs: 850, Tid: 0, Loop: 0, Epoch: 3, Kind: "r-smoothed", SF: []float64{2.4375, 1}},
		},
		Timeline: []IntervalRecord{
			{Tid: 0, StartNs: 100, EndNs: 104, State: Sched},
			{Tid: 0, StartNs: 104, EndNs: 804, State: Running},
			{Tid: 0, StartNs: 804, EndNs: 4200, State: Sync},
		},
	}
}

// encodeToBytes is encodeBoth: both writer paths, checked against the
// reference encoder.
func encodeToBytes(t *testing.T, r *Record) []byte {
	t.Helper()
	return encodeBoth(t, r)
}

func TestRecordRoundTrip(t *testing.T) {
	want := sampleRecord()
	data := encodeToBytes(t, want)
	got, err := DecodeJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeJSONL: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestLegacyStreamReads: testdata/legacy_v1.jsonl is a record that an
// earlier build wrote (two simulated AID loops on a 1+1-core Platform A),
// with an "index" key on each loop line and an "sf" line per published SF
// table and per barrier release. It still decodes; the "sf" lines held no
// table the phases lack (each loop's first and last "sf" tables are its
// digest's SFFirst and SFLast); and its re-encoding is the file without the
// "sf" lines and "index" keys, byte for byte.
func TestLegacyStreamReads(t *testing.T) {
	data, err := os.ReadFile("testdata/legacy_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeJSONL: %v", err)
	}
	first, last := map[int][]float64{}, map[int][]float64{}
	var want []byte
	index := regexp.MustCompile(`"index":[0-9]+,`)
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"t":"sf",`)) {
			want = append(want, index.ReplaceAll(line, nil)...)
			continue
		}
		var env jsonlLine
		var s struct {
			Loop int       `json:"loop"`
			SF   []float64 `json:"sf"`
		}
		if err := json.Unmarshal(line, &env); err != nil || json.Unmarshal(env.D, &s) != nil {
			t.Fatalf("the fixture's line %s does not read", line)
		}
		if first[s.Loop] == nil {
			first[s.Loop] = s.SF
		}
		last[s.Loop] = s.SF
	}
	if len(last) != 2 || !index.Match(data) {
		t.Fatalf("the fixture has \"sf\" lines for %d loops (want 2) and \"index\" keys: %v", len(last), index.Match(data))
	}
	for li, l := range rec.Digest().Loops {
		if !slices.Equal(l.SFFirst, first[li]) || !slices.Equal(l.SFLast, last[li]) {
			t.Errorf("loop %d: digest SF %v .. %v, the \"sf\" lines %v .. %v", li, l.SFFirst, l.SFLast, first[li], last[li])
		}
	}
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("re-encoded:\n%s\nwant the fixture without \"sf\" lines and \"index\" keys:\n%s", got, want)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	r := sampleRecord()
	if !bytes.Equal(encodeToBytes(t, r), encodeToBytes(t, r)) {
		t.Error("encoding the same record twice produced different bytes")
	}
}

// randomRecord generates a structurally valid record with randomized
// payloads — the property-test generator for the lossless-codec claim.
func randomRecord(rng *rand.Rand) *Record {
	engines := []string{"sim", "rt"}
	bindings := []string{"BS", "SB"}
	platforms := []*amp.Platform{amp.PlatformA(), amp.PlatformB(), amp.PlatformTri()}
	nThreads := 1 + rng.Intn(8)
	nLoops := 1 + rng.Intn(4)
	r := &Record{
		Version:    RecordVersion,
		Engine:     engines[rng.Intn(2)],
		Platform:   PlatformRecordOf(platforms[rng.Intn(3)]),
		NThreads:   nThreads,
		Binding:    bindings[rng.Intn(2)],
		StartNs:    rng.Int63n(1 << 20),
		MakespanNs: rng.Int63n(1 << 40),
	}
	if rng.Intn(2) == 0 {
		r.Policy = "wrr"
	}
	if rng.Intn(3) == 0 {
		r.Migrations = []MigrationRecord{{AtNs: rng.Int63n(1000), Tid: rng.Intn(nThreads), ToCPU: rng.Intn(8)}}
	}
	for li := 0; li < nLoops; li++ {
		l := LoopRecord{
			Name:      fmt.Sprintf("loop-%d", li),
			NI:        rng.Int63n(1 << 20),
			Weight:    rng.Intn(4),
			ArriveNs:  rng.Int63n(3) * rng.Int63n(1<<40), // zero (omitted) in a third of the loops
			Scheduler: "aid-static",
			Profile:   amp.Profile{ILP: rng.Float64(), MemIntensity: rng.Float64(), FootprintMB: rng.Float64() * 4},
		}
		switch rng.Intn(4) {
		case 0:
			l.Cost = &CostRecord{Kind: "uniform", Base: rng.Float64() * 1e5}
		case 1:
			l.Cost = &CostRecord{Kind: "linear", Base: rng.Float64() * 1e4, Slope: rng.Float64()}
		case 2:
			l.Cost = &CostRecord{Kind: "block", Base: rng.Float64() * 1e5, Amp: rng.Float64() * 3,
				BlockLen: 1 + rng.Int63n(64), Seed: rng.Uint64()}
		}
		if rng.Intn(2) == 0 {
			l.Schedule = "aid-static,2"
		}
		r.Loops = append(r.Loops, l)
	}
	nEvents := rng.Intn(50)
	for i := 0; i < nEvents; i++ {
		ev := ChunkEvent{
			Seq:          int64(i),
			TimeNs:       rng.Int63n(1 << 40),
			Tid:          int32(rng.Intn(nThreads)),
			Loop:         int32(rng.Intn(nLoops)),
			Shard:        rng.Int31n(3),
			Origin:       rng.Int31n(4) - 1, // includes OriginShared (-1)
			PoolAccesses: int16(rng.Intn(4)),
			Timestamps:   int16(rng.Intn(2)),
		}
		if rng.Intn(8) == 0 {
			ev.Retire = true
		} else {
			ev.Lo = rng.Int63n(1 << 20)
			ev.Hi = ev.Lo + 1 + rng.Int63n(1024)
			ev.Cost = rng.Float64() * 1e7
			ev.ExecNs = rng.Int63n(1 << 30)
		}
		r.Events = append(r.Events, ev)
	}
	for i := rng.Intn(5); i > 0; i-- {
		p := PhaseEvent{TimeNs: rng.Int63n(1 << 40), Tid: rng.Intn(nThreads),
			Loop: rng.Intn(nLoops), Epoch: rng.Intn(10), Kind: "r-smoothed"}
		if rng.Intn(2) == 0 {
			p.SF = []float64{1 + rng.Float64()*7, 1}
		}
		r.Phases = append(r.Phases, p)
	}
	if rng.Intn(2) == 0 {
		start := int64(0)
		for i := 0; i < 4; i++ {
			end := start + 1 + rng.Int63n(1000)
			r.Timeline = append(r.Timeline, IntervalRecord{Tid: rng.Intn(nThreads),
				StartNs: start, EndNs: end, State: State(rng.Intn(3))})
			start = end
		}
	}
	return r
}

// TestRecordRoundTripProperty is the decode(encode(r)) == r property over
// randomized records, covering float round-tripping (JSON shortest-form
// float64 encoding is exact) and every optional section present/absent.
func TestRecordRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA1D))
	for i := 0; i < 200; i++ {
		want := randomRecord(rng)
		data := encodeToBytes(t, want)
		got, err := DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("case %d: DecodeJSONL: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		// Second-generation stability: re-encoding the decoded record must
		// be byte-identical (no normalization drift between generations).
		if !bytes.Equal(data, encodeToBytes(t, got)) {
			t.Fatalf("case %d: re-encoded record differs from first encoding", i)
		}
	}
}

func TestDecodeRejectsUnsupportedVersion(t *testing.T) {
	r := sampleRecord()
	r.Version = RecordVersion + 1
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, r); err == nil {
		// Encode validates too; craft the bad header by string surgery so
		// the decoder's own check is exercised.
		t.Fatal("EncodeJSONL accepted an unsupported version")
	}
	data := string(encodeToBytes(t, sampleRecord()))
	data = strings.Replace(data, fmt.Sprintf(`"version":%d`, RecordVersion),
		fmt.Sprintf(`"version":%d`, RecordVersion+1), 1)
	if _, err := DecodeJSONL(strings.NewReader(data)); err == nil {
		t.Error("DecodeJSONL accepted an unsupported version")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("error %q does not mention the version", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"not json":         "hello\n",
		"no header":        `{"t":"ev","d":{"seq":0}}` + "\n",
		"unknown line":     string(encodeToBytes(t, sampleRecord())) + `{"t":"wat","d":{}}` + "\n",
		"duplicate header": string(encodeToBytes(t, sampleRecord())) + string(encodeToBytes(t, sampleRecord())),
	}
	for name, data := range cases {
		if _, err := DecodeJSONL(strings.NewReader(data)); err == nil {
			t.Errorf("%s: DecodeJSONL succeeded, want error", name)
		}
	}
}

// TestDecodeRejectsTruncatedRecord: the run header counts the events, so a
// record cut after its k-th event line, for every k short of the whole, is
// refused with an error naming both numbers, by the reference decoder too. A
// header without a count, as older builds wrote it, reads as before: the
// whole record back, and a cut one as the shorter run it looks like.
func TestDecodeRejectsTruncatedRecord(t *testing.T) {
	r := sampleRecord()
	data := encodeToBytes(t, r)
	count := fmt.Sprintf(`,"events":%d}}`, len(r.Events))
	if !bytes.Contains(data, []byte(count+"\n")) {
		t.Fatalf("the run header does not end in %s:\n%s", count, data)
	}
	uncounted := bytes.Replace(data, []byte(count), []byte("}}"), 1)
	lines := bytes.SplitAfter(data, []byte("\n"))
	oldLines := bytes.SplitAfter(uncounted, []byte("\n"))
	for k := 0; k < len(r.Events); k++ {
		end := 1 + len(r.Loops) + k // the header, the loops, k events
		cut := bytes.Join(lines[:end], nil)
		want := fmt.Sprintf("counts %d events, the stream holds %d", len(r.Events), k)
		if _, err := DecodeJSONL(bytes.NewReader(cut)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("cut after event %d: DecodeJSONL error %v, want one that %s", k, err, want)
		}
		if _, err := decodeJSONLRef(bytes.NewReader(cut)); err == nil {
			t.Errorf("cut after event %d: the reference decoder accepts it", k)
		}
		var wantEvents []ChunkEvent // nil when there are none, as the decoder gives it
		if k > 0 {
			wantEvents = r.Events[:k]
		}
		got, err := DecodeJSONL(bytes.NewReader(bytes.Join(oldLines[:end], nil)))
		if err != nil || !reflect.DeepEqual(got.Events, wantEvents) {
			t.Errorf("cut after event %d without a count: %v, %+v", k, err, got)
		}
	}
	got, err := DecodeJSONL(bytes.NewReader(uncounted))
	if err != nil || !reflect.DeepEqual(got, r) {
		t.Errorf("the record without a count decodes to %+v, %v; want %+v", got, err, r)
	}
}

// TestRecorderEventOrder: a Recorder's events come back whole and in order
// however the stream grew — from a reservation of any size into blocks, and
// with Record called in the middle of the run. The reservation is the one
// Expect makes when the run's first event differs from the expected ones.
func TestRecorderEventOrder(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 49, 5000, 9000} {
		for _, reserve := range []int{0, 5, n} {
			for _, mid := range []int{-1, n / 3} {
				rec := NewRecorder()
				if reserve > 0 {
					rec.Expect(make([]ChunkEvent, reserve)) // no event granted [i, i+1) is zero
				}
				if err := rec.BeginRun(RunMeta{Engine: "sim", NThreads: 1, Binding: "BS"}); err != nil {
					t.Fatal(err)
				}
				li := rec.AddLoop(LoopRecord{Name: "l", NI: int64(n)})
				for i := 0; i < n; i++ {
					if i == mid {
						if got := len(rec.Record().Events); got != i {
							t.Errorf("n=%d reserve=%d: Record after %d events holds %d", n, reserve, i, got)
						}
					}
					rec.Chunk(ChunkEvent{Loop: int32(li), Lo: int64(i), Hi: int64(i) + 1})
				}
				evs := rec.Record().Events
				if len(evs) != n {
					t.Fatalf("n=%d reserve=%d mid=%d: %d events", n, reserve, mid, len(evs))
				}
				for i, ev := range evs {
					if ev.Seq != int64(i) || ev.Lo != int64(i) {
						t.Fatalf("n=%d reserve=%d mid=%d: event %d is %+v", n, reserve, mid, i, ev)
					}
				}
			}
		}
	}
}

// TestRecorderExpect: a run that repeats the expected events gets them back
// as its record's own array; one that differs at an event, makes fewer or
// more calls, or was told too late gets an array of its own holding exactly
// what it recorded, and the expected events stay as they were.
func TestRecorderExpect(t *testing.T) {
	const n = 40
	expected := make([]ChunkEvent, n)
	for i := range expected {
		expected[i] = ChunkEvent{Seq: int64(i), Lo: int64(i), Hi: int64(i) + 1}
	}
	orig := slices.Clone(expected)
	for _, c := range []struct {
		name   string
		calls  int
		early  bool // Expect before the first Chunk
		change func(i int, ev *ChunkEvent)
		shared bool
	}{
		{"repeated", n, true, nil, true},
		{"differs at 0", n, true, func(i int, ev *ChunkEvent) {
			if i == 0 {
				ev.ExecNs = 7
			}
		}, false},
		{"differs at 17", n, true, func(i int, ev *ChunkEvent) {
			if i == 17 {
				ev.Shard = 1
			}
		}, false},
		{"differs at the last", n, true, func(i int, ev *ChunkEvent) {
			if i == n-1 {
				ev.Retire = true
			}
		}, false},
		{"fewer calls", n - 1, true, nil, false},
		{"more calls", n + 3, true, nil, false},
		{"told late", n, false, nil, false},
	} {
		rec := NewRecorder()
		if err := rec.BeginRun(RunMeta{Engine: "sim", NThreads: 1, Binding: "BS"}); err != nil {
			t.Fatal(err)
		}
		if c.early {
			rec.Expect(expected)
		}
		want := make([]ChunkEvent, c.calls)
		for i := range want {
			ev := ChunkEvent{Lo: int64(i), Hi: int64(i) + 1}
			if c.change != nil {
				c.change(i, &ev)
			}
			rec.Chunk(ev)
			if i == 0 && !c.early {
				rec.Expect(expected)
			}
			ev.Seq = int64(i)
			want[i] = ev
		}
		got := rec.Record().Events
		if len(got) != len(want) {
			t.Errorf("%s: recorded %d events, want %d", c.name, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Errorf("%s: event %d is %+v, want %+v", c.name, i, got[i], want[i])
				break
			}
		}
		if shared := len(got) > 0 && &got[0] == &expected[0]; shared != c.shared {
			t.Errorf("%s: record shares the expected array: %v, want %v", c.name, shared, c.shared)
		}
		if !slices.Equal(expected, orig) {
			t.Fatalf("%s: the expected events changed", c.name)
		}
	}
}

func TestDecodeRejectsInconsistentRecord(t *testing.T) {
	r := sampleRecord()
	r.Events[0].Loop = 99 // dangling loop reference
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, r); err == nil {
		t.Error("EncodeJSONL accepted an event referencing a missing loop")
	}
}

// TestRecordTraceReconstruction: feeding a record's timeline to a timed
// recorder reproduces it, and a record without one draws the chart's header
// alone.
func TestRecordTraceReconstruction(t *testing.T) {
	r := sampleRecord()
	rec := timedRecorder(t, r.NThreads)
	for _, iv := range r.Timeline {
		rec.Add(iv.Tid, iv.StartNs, iv.EndNs, iv.State)
	}
	if got := rec.Record().Timeline; !reflect.DeepEqual(got, r.Timeline) {
		t.Errorf("reconstructed timeline %+v, want %+v", got, r.Timeline)
	}
	if got := stateNs(r, 0, Running); got != 700 {
		t.Errorf("Running time = %d, want 700", got)
	}
	r.Timeline = nil
	if got := r.Render(20); strings.Count(got, "\n") != 1 {
		t.Errorf("a record without a timeline draws %q", got)
	}
}

// TestRecorderTapes: a recorder that takes two loops' tapes puts their
// events in EventOrder at EndRun, each with its loop's index and numbered
// from 0, after reducing the budgeted loop's to its budget; puts their phases
// in time order, a worker's own order breaking ties, and derives their SF
// samples; lays out a timed recorder's timeline from the tapes' intervals,
// which keep Add's contract; and writes none of the tapes.
func TestRecorderTapes(t *testing.T) {
	ev := func(seq, at int64, tid int32, lo, hi int64) ChunkEvent {
		return ChunkEvent{Seq: seq, TimeNs: at, Tid: tid, Lo: lo, Hi: hi, ExecNs: 1}
	}
	retire := func(seq, at int64, tid int32) ChunkEvent {
		return ChunkEvent{Seq: seq, TimeNs: at, Tid: tid, Retire: true}
	}
	fill := func(evs []ChunkEvent, phs []PhaseEvent) Tapes {
		tapes := make(Tapes, 2)
		for _, e := range evs {
			tapes.Chunk(e)
		}
		for _, p := range phs {
			tapes.Phase(p)
		}
		return tapes
	}
	// Each worker's Seq runs on from loop a into loop b, as a runtime
	// worker's does; the events' ties at 10 and 30 are broken by thread.
	a := fill([]ChunkEvent{
		ev(0, 10, 0, 0, 1), ev(1, 30, 0, 2, 3), retire(2, 50, 0),
		ev(0, 10, 1, 1, 2), ev(1, 30, 1, 3, 4), retire(2, 40, 1),
	}, []PhaseEvent{
		{TimeNs: 20, Tid: 1, Epoch: 1, Kind: "sf-published", SF: []float64{2, 1}},
		{TimeNs: 20, Tid: 0, Epoch: 2, Kind: "tail-switch"},
		{TimeNs: 20, Tid: 0, Epoch: 3, Kind: "drain"},
	})
	// Loop b compacts to four events, [0,3) and [3,6) at 60 and the two
	// retirements, and its budget of 3 keeps the first and the last two.
	b := fill([]ChunkEvent{
		ev(3, 60, 0, 0, 1), ev(4, 61, 0, 1, 2), ev(5, 62, 0, 2, 3), retire(6, 80, 0),
		ev(3, 60, 1, 3, 4), ev(4, 65, 1, 4, 5), ev(5, 70, 1, 5, 6), retire(6, 75, 1),
	}, []PhaseEvent{{TimeNs: 65, Tid: 1, Epoch: 1, Kind: "sf-published", SF: []float64{3, 1}}})
	threads := func(tapes ...Tapes) []any {
		var out []any
		for _, tp := range tapes {
			for tid := range tp {
				evs, phs, ivs := tp.Thread(tid)
				out = append(out, evs, slices.Clone(phs), slices.Clone(ivs))
			}
		}
		return out
	}
	before := threads(a, b)

	rec := NewRecorder()
	if err := rec.BeginRun(RunMeta{Engine: "rt", NThreads: 2, Binding: "BS"}); err != nil {
		t.Fatal(err)
	}
	rec.AddTapes(LoopRecord{Name: "a", NI: 4}, a, 0)
	rec.AddTapes(LoopRecord{Name: "b", NI: 6}, b, 3)
	rec.EndRun(80)
	got := rec.Record()
	if len(got.Loops) != 2 || got.Loops[0].Name != "a" || got.Loops[1].Name != "b" {
		t.Fatalf("loops %+v", got.Loops)
	}
	inLoop := func(loop int32, evs ...ChunkEvent) []ChunkEvent {
		for i := range evs {
			evs[i].Loop = loop
		}
		return evs
	}
	want := append(inLoop(0, ev(0, 10, 0, 0, 1), ev(0, 10, 1, 1, 2), ev(1, 30, 0, 2, 3), ev(1, 30, 1, 3, 4), retire(2, 40, 1), retire(2, 50, 0)),
		inLoop(1, ChunkEvent{Seq: 3, TimeNs: 60, Lo: 0, Hi: 3, ExecNs: 3}, retire(6, 75, 1), retire(6, 80, 0))...)
	for i := range want {
		want[i].Seq = int64(i)
	}
	if !reflect.DeepEqual(got.Events, want) {
		t.Errorf("merged events\n%+v\nwant\n%+v", got.Events, want)
	}
	wantPhases := []PhaseEvent{
		{TimeNs: 20, Tid: 0, Epoch: 2, Kind: "tail-switch"},
		{TimeNs: 20, Tid: 0, Epoch: 3, Kind: "drain"},
		{TimeNs: 20, Tid: 1, Epoch: 1, Kind: "sf-published", SF: []float64{2, 1}},
		{TimeNs: 65, Tid: 1, Loop: 1, Epoch: 1, Kind: "sf-published", SF: []float64{3, 1}},
	}
	if !reflect.DeepEqual(got.Phases, wantPhases) {
		t.Errorf("merged phases %+v, want %+v", got.Phases, wantPhases)
	}
	if got.Timeline != nil {
		t.Errorf("an untimed recorder laid out a timeline: %+v", got.Timeline)
	}
	if again := rec.Record(); !reflect.DeepEqual(again.Events, want) || !reflect.DeepEqual(again.Phases, wantPhases) {
		t.Error("a second Record differs from the first")
	}
	if !reflect.DeepEqual(threads(a, b), before) {
		t.Error("the recorder wrote a tape")
	}

	c := make(Tapes, 2)
	c.Add(0, 0, 10, Sched)
	c.Add(0, 10, 10, Running) // empty: dropped
	c.Add(0, 10, 30, Sched)   // continues [0,10): merged
	c.Add(0, 30, 50, Running)
	c.Add(1, 5, 20, Running)
	timed := timedRecorder(t, 2)
	timed.Add(1, 0, 5, Sched) // laid out in place of the tapes' intervals: not at all
	timed.AddTapes(LoopRecord{Name: "c", NI: 1}, c, 0)
	timed.EndRun(50)
	wantTimeline := []IntervalRecord{{0, 0, 30, Sched}, {0, 30, 50, Running}, {1, 5, 20, Running}}
	if tl := timed.Record().Timeline; !reflect.DeepEqual(tl, wantTimeline) {
		t.Errorf("timeline %+v, want %+v", tl, wantTimeline)
	}
	for name, call := range map[string]func(){
		"a second loop on a timed recorder": func() { timed.AddTapes(LoopRecord{Name: "d"}, make(Tapes, 2), 0) },
		"three tapes for two threads":       func() { rec.AddTapes(LoopRecord{Name: "e"}, make(Tapes, 3), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestRecorderBudgetedArray: the record's event array is sized for what it
// keeps. A budgeted loop of 10 000 captured grants that compact to four
// events, beside an unbudgeted loop of three, leaves an array of seven
// events, not one with room for every grant captured.
func TestRecorderBudgetedArray(t *testing.T) {
	raw, budgeted := make(Tapes, 2), make(Tapes, 2)
	raw.Chunk(ChunkEvent{Seq: 0, TimeNs: 1, Tid: 0, Lo: 0, Hi: 2})
	raw.Chunk(ChunkEvent{Seq: 1, TimeNs: 2, Tid: 0, Retire: true})
	raw.Chunk(ChunkEvent{Seq: 0, TimeNs: 2, Tid: 1, Retire: true})
	const n = 5000
	for i := int64(0); i < n; i++ {
		for tid := int32(0); tid < 2; tid++ {
			lo := int64(tid)*n + i
			budgeted.Chunk(ChunkEvent{Seq: 2 + i, TimeNs: 10 + i, Tid: tid, Lo: lo, Hi: lo + 1, ExecNs: 1})
		}
	}
	budgeted.Chunk(ChunkEvent{Seq: 2 + n, TimeNs: 10 + n, Tid: 0, Retire: true})
	budgeted.Chunk(ChunkEvent{Seq: 2 + n, TimeNs: 10 + n, Tid: 1, Retire: true})
	rec := NewRecorder()
	if err := rec.BeginRun(RunMeta{Engine: "rt", NThreads: 2, Binding: "BS"}); err != nil {
		t.Fatal(err)
	}
	rec.AddTapes(LoopRecord{Name: "raw", NI: 2}, raw, 0)
	rec.AddTapes(LoopRecord{Name: "budgeted", NI: 2 * n}, budgeted, 64)
	rec.EndRun(20 + n)
	evs := rec.Record().Events
	if len(evs) != 7 || cap(evs) != len(evs) {
		t.Errorf("the record holds %d events in an array of %d, want 7 in 7", len(evs), cap(evs))
	}
}

func TestRecorderSingleRun(t *testing.T) {
	rec := NewRecorder()
	meta := RunMeta{Engine: "sim", Platform: PlatformRecordOf(amp.PlatformA()), NThreads: 2, Binding: "BS"}
	if err := rec.BeginRun(meta); err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	if err := rec.BeginRun(meta); err == nil {
		t.Error("second BeginRun succeeded, want error")
	}
}

// TestRecorderPhaseCarriesSF: a phase is recorded as given, and the loop's
// SF trajectory is its SF-bearing phases: one point for one published table.
func TestRecorderPhaseCarriesSF(t *testing.T) {
	rec := NewRecorder()
	if err := rec.BeginRun(RunMeta{Engine: "rt", Platform: PlatformRecordOf(amp.PlatformA()), NThreads: 2, Binding: "BS"}); err != nil {
		t.Fatalf("BeginRun: %v", err)
	}
	rec.AddLoop(LoopRecord{Name: "other", NI: 1})
	li := rec.AddLoop(LoopRecord{Name: "l", NI: 8, Scheduler: "aid-static"})
	if li != 1 {
		t.Fatalf("AddLoop returned %d for the second loop", li)
	}
	want := []PhaseEvent{
		{TimeNs: 20, Tid: 1, Loop: li, Epoch: 1, Kind: "sf-published", SF: []float64{2, 1}},
		{TimeNs: 30, Tid: 0, Loop: li, Epoch: 2, Kind: "tail-switch"},
	}
	for _, p := range want {
		rec.Phase(p)
	}
	r := rec.Record()
	if !reflect.DeepEqual(r.Phases, want) {
		t.Fatalf("recorded phases %+v, want %+v", r.Phases, want)
	}
	if l := r.Digest().Loops[li]; l.SFSamples != 1 || !slices.Equal(l.SFFirst, want[0].SF) || !slices.Equal(l.SFLast, want[0].SF) {
		t.Errorf("SF trajectory %v .. %v in %d points, want the one published table", l.SFFirst, l.SFLast, l.SFSamples)
	}
}

func TestValidateRejectsOutOfRangeReferences(t *testing.T) {
	cases := map[string]func(*Record){
		"timeline tid": func(r *Record) { r.Timeline[0].Tid = r.NThreads },
		"phase tid":    func(r *Record) { r.Phases[0].Tid = -1 },
		"phase loop":   func(r *Record) { r.Phases[0].Loop = len(r.Loops) },
		"loop arrival": func(r *Record) { r.Loops[1].ArriveNs = -1 },
		"threads":      func(r *Record) { r.NThreads = 1 << 20 },
	}
	for name, corrupt := range cases {
		r := sampleRecord()
		corrupt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an out-of-range value", name)
		}
	}
}

// TestValidateCountsHugeClusters: clusters whose core counts sum past the
// largest int still have room for a record's threads.
func TestValidateCountsHugeClusters(t *testing.T) {
	r := sampleRecord()
	r.Platform.Clusters = []amp.Cluster{{NumCores: math.MaxInt}, {NumCores: math.MaxInt}}
	if err := r.Validate(); err != nil {
		t.Errorf("%d threads on two clusters of %d cores: %v", r.NThreads, math.MaxInt, err)
	}
}
