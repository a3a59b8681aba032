package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/amp"
)

// encodeBoth encodes r into a *bytes.Buffer, which EncodeJSONL reserves room
// in, and into a writer that hides Grow, which takes the bufio path, and
// fails t unless both write what the reference encoder writes.
func encodeBoth(t testing.TB, r *Record) []byte {
	t.Helper()
	var reserved, plain, ref bytes.Buffer
	if err := EncodeJSONL(&reserved, r); err != nil {
		t.Fatalf("EncodeJSONL: %v", err)
	}
	if err := EncodeJSONL(struct{ io.Writer }{&plain}, r); err != nil {
		t.Fatalf("EncodeJSONL, bufio path: %v", err)
	}
	if err := encodeJSONLRef(&ref, r); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	for name, got := range map[string][]byte{"*bytes.Buffer": reserved.Bytes(), "struct{ io.Writer }": plain.Bytes()} {
		if !bytes.Equal(got, ref.Bytes()) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(ref.String(), "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					t.Fatalf("EncodeJSONL into %s, line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[min(i, len(wl)-1)])
				}
			}
			t.Fatalf("EncodeJSONL into %s wrote %d lines, the reference %d", name, len(gl), len(wl))
		}
	}
	return reserved.Bytes()
}

// wildRecord draws a valid record whose every section is exercised: loop
// names that json.Marshal escapes, events of every shape, phases of every
// kind, SF arrays nil, empty and of every float format, and intervals.
func wildRecord(rng *rand.Rand) *Record {
	r := sampleRecord()
	r.NThreads = 1 + rng.Intn(8)
	r.Loops = r.Loops[:0]
	for i := rng.Intn(4); i >= 0; i-- {
		r.Loops = append(r.Loops, LoopRecord{Index: len(r.Loops), Name: phaseKinds[rng.Intn(len(phaseKinds))],
			NI: rng.Int63n(1 << 40), Scheduler: "dynamic", Profile: amp.Profile{ILP: rng.Float64()}})
	}
	r.Events, r.Phases, r.SFSamples, r.Timeline = nil, nil, nil, nil
	for i := rng.Intn(40); i > 0; i-- {
		ev := randomEvent(rng)
		ev.Tid, ev.Loop = int32(rng.Intn(r.NThreads)), int32(rng.Intn(len(r.Loops)))
		if !ev.Retire {
			ev.Lo, ev.Hi = rng.Int63n(1<<40), 1<<40+rng.Int63n(1<<40)
		}
		r.Events = append(r.Events, ev)
	}
	for i := rng.Intn(10); i > 0; i-- {
		r.Phases = append(r.Phases, PhaseEvent{TimeNs: randomInt(rng), Tid: rng.Intn(r.NThreads), Loop: rng.Intn(len(r.Loops)),
			Epoch: int(randomInt(rng)), Kind: phaseKinds[rng.Intn(len(phaseKinds))], SF: randomSF(rng)})
	}
	for i := rng.Intn(10); i > 0; i-- {
		r.SFSamples = append(r.SFSamples, SFSample{TimeNs: randomInt(rng), Loop: rng.Intn(len(r.Loops)), SF: randomSF(rng)})
	}
	for i := rng.Intn(10); i > 0; i-- {
		r.Timeline = append(r.Timeline, IntervalRecord{Tid: rng.Intn(r.NThreads), StartNs: randomInt(rng), EndNs: randomInt(rng),
			State: State(rng.Intn(3))})
	}
	return r
}

// growSpy is a *bytes.Buffer that records the room EncodeJSONL reserves.
type growSpy struct {
	bytes.Buffer
	grows []int
}

func (g *growSpy) Grow(n int) {
	g.grows = append(g.grows, n)
	g.Buffer.Grow(n)
}

// TestEncodeWriterPaths: on the sample record, the burst-sized record, the
// round-trip test's random records and wild ones, EncodeJSONL writes the reference
// encoder's bytes both into a destination it reserves room in and through
// the bufio path, and it reserves room once, exactly the record's length when
// every phase kind is plain and no less when one is not.
func TestEncodeWriterPaths(t *testing.T) {
	records := []*Record{sampleRecord(), burstRecord(t), {Version: 1, Engine: "rt", NThreads: 1, Binding: "SB",
		Platform: PlatformRecord{Clusters: []amp.Cluster{{NumCores: 1}}}}}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 300; i++ {
		records = append(records, randomRecord(rng), wildRecord(rng))
	}
	for i, r := range records {
		want := encodeBoth(t, r)
		var spy growSpy
		if err := EncodeJSONL(&spy, r); err != nil {
			t.Fatal(err)
		}
		plain := true
		for _, p := range r.Phases {
			plain = plain && isPlain(p.Kind)
		}
		if len(spy.grows) != 1 || spy.grows[0] < len(want) || plain && spy.grows[0] != len(want) {
			t.Fatalf("record %d: EncodeJSONL reserved %v for %d bytes (every kind plain: %v)", i, spy.grows, len(want), plain)
		}
		if !bytes.Equal(spy.Bytes(), want) {
			t.Fatalf("record %d: a second encoding differs", i)
		}
	}
}

// TestEncodeConcurrent: encoders come from a pool shared by every
// EncodeJSONL, so concurrent calls, on both writer paths, must each write
// their own record's bytes.
func TestEncodeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var records []*Record
	var want [][]byte
	for i := 0; i < 16; i++ {
		r := wildRecord(rng)
		records, want = append(records, r), append(want, encodeBoth(t, r))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g*7 + k) % len(records)
				var buf bytes.Buffer
				w := io.Writer(&buf)
				if k%2 == 1 {
					w = struct{ io.Writer }{&buf}
				}
				if err := EncodeJSONL(w, records[i]); err != nil || !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("goroutine %d: record %d encodes to %d other bytes (%v)", g, i, buf.Len(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNonFiniteSFRejected is TestNonFiniteCostRejected for the SF values of
// phases and SF samples: Validate names the line, and EncodeJSONL writes
// nothing on either path, although the record is well past the bufio path's
// 4 KiB buffer (json.Marshal used to fail after the events had gone out). A
// non-finite value that Validate does not look at, in a loop's cost model,
// is json.Marshal's to refuse, and that too happens before the first byte.
func TestNonFiniteSFRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			line string // what Validate names, "" when it passes
			set  func(*Record)
		}{
			{"phase 7 ", func(r *Record) { r.Phases[7].SF[1] = bad }},
			{"SF sample 9 ", func(r *Record) { r.SFSamples[9].SF[0] = bad }},
			{"", func(r *Record) { r.Loops[20].Cost = &CostRecord{Kind: "uniform", Base: bad} }},
		} {
			r := burstRecord(t)
			c.set(r)
			if err := r.Validate(); c.line == "" && err != nil || c.line != "" && (err == nil || !strings.Contains(err.Error(), c.line)) {
				t.Errorf("SF %v: Validate = %v, want an error naming %q", bad, err, c.line)
			}
			var reserved, plain bytes.Buffer
			for name, w := range map[string]io.Writer{"*bytes.Buffer": &reserved, "struct{ io.Writer }": struct{ io.Writer }{&plain}} {
				if err := EncodeJSONL(w, r); err == nil {
					t.Errorf("SF %v in %s: EncodeJSONL into %s succeeded", bad, c.line, name)
				}
			}
			if reserved.Len() != 0 || plain.Len() != 0 {
				t.Errorf("SF %v in %s: EncodeJSONL wrote %d and %d bytes before failing", bad, c.line, reserved.Len(), plain.Len())
			}
		}
	}
}

// TestPerEventLineDecodeAllocs is the decoder's allocation gate for the other
// per-event lines: a phase or SF-sample line costs one allocation, its SF
// slice (a phase kind is allocated once per record), and an interval line
// none, each section's own growth aside.
func TestPerEventLineDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 2048
	bare := sampleRecord()
	bare.Events, bare.Phases, bare.SFSamples, bare.Timeline = nil, nil, nil, nil
	decode := func(r *Record) float64 {
		data := encodeBoth(t, r)
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeJSONL(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := decode(bare)
	for _, c := range []struct {
		name  string
		limit float64
		fill  func(r *Record, i int)
	}{
		{"phase", 1.01, func(r *Record, i int) {
			r.Phases = append(r.Phases, PhaseEvent{TimeNs: int64(i) * 977, Tid: i % 4, Loop: i % 2, Epoch: i,
				Kind: phaseKinds[i%3], SF: []float64{1 + float64(i)/3, 1}})
		}},
		{"SF sample", 1.01, func(r *Record, i int) {
			r.SFSamples = append(r.SFSamples, SFSample{TimeNs: int64(i) * 977, Loop: i % 2, SF: []float64{1 + float64(i)/7, 1}})
		}},
		{"interval", 0.01, func(r *Record, i int) {
			r.Timeline = append(r.Timeline, IntervalRecord{Tid: i % 4, StartNs: int64(i) * 977, EndNs: int64(i)*977 + 500, State: State(i % 3)})
		}},
	} {
		r := sampleRecord()
		r.Events, r.Phases, r.SFSamples, r.Timeline = nil, nil, nil, nil
		for i := 0; i < n; i++ {
			c.fill(r, i)
		}
		if per := (decode(r) - base) / n; per > c.limit {
			t.Errorf("DecodeJSONL: %.4f allocations per %s line, want at most %v", per, c.name, c.limit)
		} else {
			t.Logf("%s line: %.4f allocations", c.name, per)
		}
	}
}

// burstRecord is a record of the shape of the sim_figures benchmark's
// recorded burst: 21 loops on two threads, 21 725 chunk events, 393 phase
// transitions (7 of them without an SF) and 400 SF samples, with the
// burst's whole-number costs and full-precision SF values.
func burstRecord(t testing.TB) *Record {
	t.Helper()
	rec := NewRecorder()
	if err := rec.BeginRun(RunMeta{Engine: "sim", Platform: PlatformRecordOf(amp.PlatformA()), NThreads: 2, Binding: "BS", Policy: "wrr"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 21; i++ {
		rec.AddLoop(LoopRecord{Name: "b" + string(rune('a'+i)), NI: 2048 << (i % 3), Weight: 1 + i%8,
			Scheduler: "aid-dynamic", Cost: &CostRecord{Kind: "uniform", Base: 800}})
	}
	rng := rand.New(rand.NewSource(45))
	var now int64
	for i := 0; i < 21725; i++ {
		now += rng.Int63n(900)
		lo := rng.Int63n(30000)
		tid, loop := int32(i%2), int32(i%21)
		ev := ChunkEvent{TimeNs: now, Tid: tid, Loop: loop, Lo: lo, Hi: lo + 1 + rng.Int63n(8), Shard: tid,
			Cost: 800, ExecNs: 400 + rng.Int63n(400), PoolAccesses: int16(rng.Intn(2)), Timestamps: 1}
		if i%2 == 1 {
			ev.Origin = 1
		}
		if i%1000 == 999 {
			ev = ChunkEvent{TimeNs: now, Tid: tid, Loop: loop, Shard: tid, PoolAccesses: 1, Retire: true}
		}
		rec.Chunk(ev)
	}
	r := rec.Record()
	sf := func() []float64 { return []float64{1 + 2*rng.Float64(), 1 + rng.Float64()/8} }
	for i := 0; i < 393; i++ {
		p := PhaseEvent{TimeNs: int64(i) * 116_000, Tid: i % 2, Loop: i % 21, Epoch: 1 + i/21, Kind: "r-smoothed", SF: sf()}
		if i < 21 {
			p.Kind = "r-initial"
		}
		if i%56 == 55 {
			p.Kind, p.SF = "tail-switch", nil
		}
		r.Phases = append(r.Phases, p)
	}
	for i := 0; i < 400; i++ {
		r.SFSamples = append(r.SFSamples, SFSample{TimeNs: int64(i) * 114_000, Loop: i % 21, SF: sf()})
	}
	return r
}

// TestEncodeBytes is the byte gate of the encoder: encoding into a fresh
// bytes.Buffer allocates at most 1.15 times the encoded record, the
// destination's growth included, on a small record and on a burst-sized one
// with phase transitions and SF samples.
func TestEncodeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		name string
		r    *Record
	}{{"small", sampleRecord()}, {"burst", burstRecord(t)}} {
		var out bytes.Buffer
		if err := EncodeJSONL(&out, c.r); err != nil {
			t.Fatal(err)
		}
		got := allocatedBytes(5, func() {
			var buf bytes.Buffer
			if err := EncodeJSONL(&buf, c.r); err != nil {
				t.Fatal(err)
			}
		})
		ratio := got / float64(out.Len())
		if ratio > 1.15 {
			t.Errorf("%s: EncodeJSONL allocates %.0f bytes for a %d-byte record, %.2f times its length, want at most 1.15", c.name, got, out.Len(), ratio)
		}
		t.Logf("%s: %d bytes encoded, %.0f allocated (%.2f)", c.name, out.Len(), got, ratio)
	}
}
