package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/amp"
)

// writeLineRef is the reference encoder of one line: the two json.Marshal
// calls EncodeJSONL made per line before evline.go, payload and envelope.
func writeLineRef(w io.Writer, tag string, v any) error {
	d, err := json.Marshal(v)
	if err != nil {
		return err
	}
	env, err := json.Marshal(jsonlLine{T: tag, D: d})
	if err != nil {
		return err
	}
	_, err = w.Write(append(env, '\n'))
	return err
}

// marshalLine is writeLineRef's line of v.
func marshalLine(t testing.TB, tag string, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeLineRef(&buf, tag, v); err != nil {
		t.Fatalf("json.Marshal(%+v): %v", v, err)
	}
	return buf.Bytes()
}

// encodeJSONLRef is the reference encoder of a record: EncodeJSONL as it was
// when json.Marshal spelled every line.
func encodeJSONLRef(w io.Writer, r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	err := writeLineRef(bw, lineRun, runHeader{r, len(r.Events)})
	for i := 0; err == nil && i < len(r.Loops); i++ {
		err = writeLineRef(bw, lineLoop, &r.Loops[i])
	}
	for i := 0; err == nil && i < len(r.Events); i++ {
		err = writeLineRef(bw, lineEvent, &r.Events[i])
	}
	for i := 0; err == nil && i < len(r.Phases); i++ {
		err = writeLineRef(bw, linePhase, &r.Phases[i])
	}
	for i := 0; err == nil && i < len(r.SFSamples); i++ {
		err = writeLineRef(bw, lineSF, &r.SFSamples[i])
	}
	for i := 0; err == nil && i < len(r.Timeline); i++ {
		err = writeLineRef(bw, lineInterval, &r.Timeline[i])
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// decodeJSONLRef is the reference decoder: DecodeJSONL as it was when every
// line, envelope and payload, went through encoding/json, with the rule on
// the run header's event count.
func decodeJSONLRef(rd io.Reader) (*Record, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var rec *Record
	var count struct {
		Events int `json:"events"`
	}
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var env jsonlLine
		if err := json.Unmarshal(raw, &env); err != nil {
			return nil, err
		}
		if rec == nil && env.T != lineRun {
			return nil, fmt.Errorf("expected run header, got %q", env.T)
		}
		var err error
		switch env.T {
		case lineRun:
			if rec != nil {
				return nil, fmt.Errorf("duplicate run header")
			}
			rec = &Record{}
			if err = json.Unmarshal(env.D, rec); err == nil && (rec.Version < 1 || rec.Version > RecordVersion) {
				err = fmt.Errorf("unsupported record version %d", rec.Version)
			}
			if err == nil {
				err = json.Unmarshal(env.D, &count)
			}
		case lineLoop:
			var l LoopRecord
			err = json.Unmarshal(env.D, &l)
			rec.Loops = append(rec.Loops, l)
		case lineEvent:
			var ev ChunkEvent
			err = json.Unmarshal(env.D, &ev)
			rec.Events = append(rec.Events, ev)
		case linePhase:
			var p PhaseEvent
			err = json.Unmarshal(env.D, &p)
			rec.Phases = append(rec.Phases, p)
		case lineSF:
			var s SFSample
			err = json.Unmarshal(env.D, &s)
			rec.SFSamples = append(rec.SFSamples, s)
		case lineInterval:
			var iv IntervalRecord
			err = json.Unmarshal(env.D, &iv)
			rec.Timeline = append(rec.Timeline, iv)
		default:
			err = fmt.Errorf("unknown line type %q", env.T)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("empty record stream")
	}
	if count.Events != 0 && len(rec.Events) != count.Events {
		return nil, fmt.Errorf("header counts %d events, stream holds %d", count.Events, len(rec.Events))
	}
	return rec, rec.Validate()
}

// randomInt draws an int64 field (randomIntOf).
func randomInt(rng *rand.Rand) int64 { return randomIntOf(rng, 64) }

// randomIntOf draws a field of bits bits from its whole range: zero, a
// negative, either limit, or a positive value of up to 40 bits that fits.
func randomIntOf(rng *rand.Rand, bits int) int64 {
	top := int64(1)<<(bits-1) - 1 // the field's largest value
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -rng.Int63n(top) - 1
	case 2:
		return top
	case 3:
		return -top - 1
	}
	return rng.Int63n(1 << uint(1+rng.Intn(min(40, bits-1))))
}

// randomFloat draws a finite float of every format: ±0, the switches to
// exponent form at 1e-6 and 1e21 and their neighbours, the extremes, whole
// numbers around the 1e15 edge of whole's digits, and values from 1e-9 to
// 1e22 of either sign.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1e-6, 1e21, 1e-7, 9.999999999999999e20, 1e-9, 1e22, 0.000001234, 5e-324, math.MaxFloat64,
			1e15 - 1, 1e15, 1e15 + 1, -(1e15 - 1), 1 << 53, 1<<53 + 2, -1e20}[rng.Intn(16)]
	case 3:
		return float64(rng.Int63n(1 << 50)) // whole numbers, as UniformCost yields
	}
	f := math.Pow(10, -9+31*rng.Float64()) * (0.1 + rng.Float64())
	if rng.Intn(4) == 0 {
		f = -f
	}
	return f
}

// randomEvent draws an event that exercises every omitempty rule and both
// float formats: zero and negative fields, each field's limits at its own
// width, retire lines, costs from 1e-9 to 1e22 with the format switches at
// 1e-6 and 1e21 hit exactly.
func randomEvent(rng *rand.Rand) ChunkEvent {
	num := func() int64 { return randomInt(rng) }
	i32 := func() int32 { return int32(randomIntOf(rng, 32)) }
	i16 := func() int16 { return int16(randomIntOf(rng, 16)) }
	ev := ChunkEvent{Seq: num(), TimeNs: num(), Tid: i32(), Loop: i32(), Lo: num(), Hi: num(),
		Shard: i32(), Origin: i32(), Cost: randomFloat(rng), ExecNs: num(),
		PoolAccesses: i16(), Timestamps: i16()}
	if rng.Intn(5) == 0 {
		ev = ChunkEvent{Seq: ev.Seq, TimeNs: ev.TimeNs, Tid: ev.Tid, Loop: ev.Loop, Shard: ev.Shard,
			Origin: ev.Origin, PoolAccesses: ev.PoolAccesses, Retire: true}
	}
	return ev
}

// TestEventLineMatchesJSON is the differential test of the encoder: for
// randomized events the appended line is byte for byte what json.Marshal
// produced, and every one of them takes DecodeJSONL's in-place path
// (parseEventLine accepts it) and reads back to the event.
func TestEventLineMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var line []byte
	for i := 0; i < 20000; i++ {
		ev := randomEvent(rng)
		line = appendEventLine(line[:0], &ev)
		if want := marshalLine(t, lineEvent, &ev); !bytes.Equal(line, want) {
			t.Fatalf("event %+v:\n got %s\nwant %s", ev, line, want)
		}
		if n := eventLineLen(&ev); n != len(line) {
			t.Fatalf("eventLineLen = %d for the %d-byte line %s", n, len(line), line)
		}
		var back ChunkEvent
		if !parseEventLine(bytes.TrimSuffix(line, []byte("\n")), &back) {
			t.Fatalf("parseEventLine refuses the encoder's own line %s", line)
		}
		// -0 is omitted like 0 and so reads back as +0, under encoding/json too.
		if ev.Cost == 0 {
			ev.Cost = 0
		}
		if back != ev && !(math.IsNaN(back.Cost) && math.IsNaN(ev.Cost)) {
			t.Fatalf("line %s decodes to %+v, want %+v", line, back, ev)
		}
	}
}

// eventLineCases are hand-written chunk-event lines, each one a thing
// encoding/json has an opinion on: the decoder must share it.
var eventLineCases = []string{
	`{"t":"ev","d":{"seq":0,"time_ns":104,"tid":0,"loop":0,"lo":0,"hi":16,"shard":0,"cost":1234.5,"exec_ns":700,"pool":1,"ts":1}}`,
	// key order, white space, the envelope's keys swapped
	" {\t\"d\" : { \"hi\" : 4 , \"lo\":1,\"loop\":1,\"tid\":1 } ,\r \"t\" : \"ev\" } ",
	// repeated keys: the last one counts; null leaves what is there
	`{"t":"loop","t":"ev","d":{"lo":9},"d":{"lo":0,"hi":2,"hi":3,"lo":null,"retire":null}}`,
	`{"t":"ev","t":null,"d":{"hi":1}}`,
	// keys match without regard to case, Unicode folding included (U+017F folds to s)
	`{"T":"ev","D":{"SEQ":3,"Time_NS":5,"HI":2,"ſeq":4,"co\u017ft":2.5,"po\u006fl":1,"retire":true}}`,
	// unknown keys with values of every kind, nested
	`{"t":"ev","x":[1,{"a":[],"b":{}},"s\"\\\u00e9",true,null,-0.5e+3],"d":{"hi":1,"note":{"k":[null]},"":0}}`,
	// escapes in the tag
	`{"t":"\u0065v","d":{"hi":1}}`,
	// integer fields take integer literals only
	`{"t":"ev","d":{"hi":1.0}}`,
	`{"t":"ev","d":{"hi":1e2}}`,
	`{"t":"ev","d":{"hi":"1"}}`,
	`{"t":"ev","d":{"hi":-0}}`,
	`{"t":"ev","d":{"hi":9223372036854775807}}`,
	`{"t":"ev","d":{"hi":9223372036854775808}}`,
	`{"t":"ev","d":{"tid":true}}`,
	`{"t":"ev","d":{"cost":1e999}}`,
	`{"t":"ev","d":{"cost":"1"}}`,
	`{"t":"ev","d":{"cost":-1.5E-7,"hi":1}}`,
	`{"t":"ev","d":{"retire":1}}`,
	`{"t":"ev","d":{"retire":false,"hi":1}}`,
	// payloads that are no object, or absent
	`{"t":"ev","d":null}`,
	`{"t":"ev","d":[]}`,
	`{"t":"ev","d":7}`,
	`{"t":"ev"}`,
	`{"t":5,"d":{}}`,
	`null`,
	`[]`,
	// not JSON
	`{"t":"ev","d":{"hi":01}}`,
	`{"t":"ev","d":{"hi":1,}}`,
	`{"t":"ev","d":{"hi":1}} x`,
	`{"t":"ev","d":{"hi":+1}}`,
	`{"t":"ev","d":{"hi":1.}}`,
	`{"t":"ev","d":{"hi":.5}}`,
	`{"t":"ev","d":{"hi":1e}}`,
	`{"t":"ev","d":{"hi":-}}`,
	`{"t":"ev","d":{"x":"\q"}}`,
	`{"t":"ev","d":{"x":"\u12g4"}}`,
	"{\"t\":\"ev\",\"d\":{\"x\":\"a\tb\"}}",
	"{\"t\":\"ev\",\"d\":{\"hi\":1}}\x00",
	`{"t":"ev","d":{"x":tru}}`,
	`{"t":"ev","d":{"hi":1}`,
	`{"t":"ev" "d":{}}`,
	`{"t":"ev","d":{"hi" 1}}`,
	`{,"t":"ev"}`,
	`{"t":"ev","d":{"x":[1,]}}`,
	`   `,
}

// deep is n arrays nested in each other.
func deep(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// TestEventLineDecodesLikeJSON feeds every case, after a run header and a loop
// descriptor, to the decoder and to the reference: they must agree on
// acceptance and, when both accept, on the record.
func TestEventLineDecodesLikeJSON(t *testing.T) {
	accepted := 0
	// encoding/json lets a line's arrays and objects nest 10000 deep, envelope
	// included (its scanner's maxNestingDepth): under "x" that is 9999 more.
	for _, line := range append(eventLineCases, deep(10000-1),
		`{"t":"ev","d":{"hi":1},"x":`+deep(10000-1)+`}`, `{"t":"ev","d":{"hi":1},"x":`+deep(10000)+`}`) {
		if checkAgainstReference(t, headerLines(t)+line+"\n") != nil {
			accepted++
		}
	}
	if accepted != 11 {
		t.Errorf("%d of the cases were accepted, want 11: the table no longer tests what it says", accepted)
	}
	// Agreement with the reference is the test; two cases are also spelled out
	// so that it cannot pass by both sides reading nothing.
	for line, want := range map[string]ChunkEvent{
		eventLineCases[2]: {Lo: 0, Hi: 3},
		eventLineCases[4]: {Seq: 4, TimeNs: 5, Hi: 2, Cost: 2.5, PoolAccesses: 1, Retire: true},
	} {
		rec, err := DecodeJSONL(strings.NewReader(headerLines(t) + line + "\n"))
		if err != nil || len(rec.Events) != 1 || rec.Events[0] != want {
			t.Errorf("%s decodes to %+v, %v; want %+v", line, rec, err, want)
		}
	}
}

// integerEdges are integer tokens at the edges of what parseEventLine reads:
// the 64-bit limits and one past them, a 20-digit token, the 32-bit and
// 16-bit limits and one past them, and the spellings strconv.ParseInt reads
// but strconv.AppendInt never writes.
var integerEdges = []string{
	"0", "1", "-1", "9223372036854775807", "-9223372036854775807", "-9223372036854775808",
	"9223372036854775808", "-9223372036854775809", "12345678901234567890", "99999999999999999999",
	"2147483647", "-2147483648", "2147483648", "-2147483649", "4294967296",
	"32767", "-32768", "32768", "-32769",
	"-0", "01", "-01", "00", "+1", "-", "",
}

// eventLineWith is an event line spelled as the encoder spells it, every
// field zero but hi, which is 1, and field, whose value is the token tok: one
// of the required seq, tid, loop and shard, or one of origin, pool and ts.
func eventLineWith(field, tok string) string {
	v := map[string]string{"seq": "0", "tid": "0", "loop": "0", "shard": "0"}
	_, required := v[field]
	v[field] = tok
	line := `{"t":"ev","d":{"seq":` + v["seq"] + `,"time_ns":0,"tid":` + v["tid"] +
		`,"loop":` + v["loop"] + `,"lo":0,"hi":1,"shard":` + v["shard"]
	if !required {
		line += `,"` + field + `":` + tok
	}
	return line + "}}"
}

// TestEventIntegerEdges: the in-place integer reader accepts a token exactly
// when strconv.ParseInt reads it at the field's width and strconv.AppendInt
// spells the value that way, and reads the same value; and a line with an
// edge token in any integer field of 16, 32 or 64 bits takes the in-place
// path exactly when encoding/json reads it to an event that the encoder
// spells the same way.
func TestEventIntegerEdges(t *testing.T) {
	accepted := 0
	for _, bits := range []int{16, 32, 64} {
		for _, tok := range integerEdges {
			txt := eventText{b: []byte(tok + ","), ok: true}
			got := txt.integer(bits)
			want, err := strconv.ParseInt(tok, 10, bits)
			wantOK := err == nil && strconv.FormatInt(want, 10) == tok
			if txt.ok != wantOK || wantOK && got != want || string(txt.b) != "," && wantOK {
				t.Errorf("integer(%d) of %q = %d, ok %v, left %q; ParseInt: %d, %v", bits, tok, got, txt.ok, txt.b, want, err)
			}
			if wantOK {
				accepted++
			}
		}
	}
	if accepted != 29 {
		t.Errorf("%d (token, width) pairs accepted, want 29: the table no longer tests what it says", accepted)
	}
	for _, field := range []string{"seq", "tid", "loop", "shard", "origin", "pool", "ts"} {
		for _, tok := range integerEdges {
			line := eventLineWith(field, tok)
			var env jsonlLine
			var want ChunkEvent
			wantOK := json.Unmarshal([]byte(line), &env) == nil && json.Unmarshal(env.D, &want) == nil &&
				string(appendEventLine(nil, &want)) == line+"\n"
			var got ChunkEvent
			if ok := parseEventLine([]byte(line), &got); ok != wantOK || ok && got != want {
				t.Errorf("%s: parseEventLine read %+v, %v; encoding/json %+v, %v", line, got, ok, want, wantOK)
			}
		}
	}
}

// narrowEdges are, for each field narrower than 64 bits, its value at one end
// of its range and the value just past that end.
var narrowEdges = []struct{ field, last, past string }{
	{"tid", "2147483647", "2147483648"},
	{"loop", "2147483647", "2147483648"},
	{"shard", "2147483647", "2147483648"},
	{"origin", "2147483647", "2147483648"},
	{"origin", "-2147483648", "-2147483649"},
	{"pool", "32767", "32768"},
	{"pool", "-32768", "-32769"},
	{"ts", "32767", "32768"},
	{"ts", "-32768", "-32769"},
}

// TestNarrowFieldsPastRange: a value just past a narrow field's range, in a
// line spelled as the encoder spells it, is refused by DecodeJSONL and by
// json.Unmarshal alike, while the value at the end of the range reads both
// ways, so that the refusal is the range's.
func TestNarrowFieldsPastRange(t *testing.T) {
	read := func(line string) (ChunkEvent, error) {
		var env jsonlLine
		var ev ChunkEvent
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("%s: envelope: %v", line, err)
		}
		return ev, json.Unmarshal(env.D, &ev)
	}
	for _, e := range narrowEdges {
		last, past := eventLineWith(e.field, e.last), eventLineWith(e.field, e.past)
		var got ChunkEvent
		if want, err := read(last); err != nil || !parseEventLine([]byte(last), &got) || got != want {
			t.Errorf("%s: parseEventLine read %+v, json.Unmarshal %+v, %v", last, got, want, err)
		}
		if _, err := DecodeJSONL(strings.NewReader(headerLines(t) + past + "\n")); err == nil {
			t.Errorf("DecodeJSONL accepts %s", past)
		}
		if ev, err := read(past); err == nil {
			t.Errorf("json.Unmarshal accepts %s as %+v", past, ev)
		}
	}
}

// envelopeCases are lines of the other five types, each spelled at or near the
// way writeLine spells an envelope: the in-place split must not read a line
// differently from encoding/json reading it whole.
var envelopeCases = []string{
	`{"t":"loop","d":{"index":2,"name":"l2","ni":8,"scheduler":"static","profile":{"ilp":0,"mem":0,"footprint_mb":0}}}`,
	`{"t":"phase","d":{"time_ns":300,"tid":3,"loop":0,"epoch":1,"kind":"r-initial","sf":[2.5,1]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":1,"sf":[2.5,1]}}`,
	`{"t":"iv","d":{"tid":0,"start_ns":100,"end_ns":104,"state":1}}`,
	// the payload's own spelling is free
	`{"t":"iv","d": { "TID" : 1 , "tid" : 0, "x" : [ {} ] } }`,
	`{"t":"phase","d":null}`,
	// the envelope's is not: these go to encoding/json whole and read the same
	`{"t":"iv","d":{"tid":0}} `,
	`{"t":"iv" ,"d":{"tid":0}}`,
	`{"t":"i\u0076","d":{"tid":0}}`,
	`{"d":{"tid":0},"t":"iv"}`,
	// the bytes behind "d": are more than one value: the last t and d count
	`{"t":"loop","d":{"hi":1},"t":"ev"}`,
	`{"t":"iv","d":{"tid":9},"d":{"tid":1}}`,
	// rejected: the closing brace inside a string, no value, two values, a value
	// of the wrong kind, one brace too many
	`{"t":"iv","d":{"tid":0},"x":"}`,
	`{"t":"iv","d":}`,
	`{"t":"iv","d":{"tid":0}{"tid":0}}`,
	`{"t":"iv","d":{"tid":"0"}}`,
	`{"t":"iv","d":7}`,
	`{"t":"iv","d":{"tid":0}}}`,
	`{"t":"sf","d":{"loop":2}}`,
	`{"t":"wat","d":{}}`,
	`{"t":"","d":{}}`,
	`{"t":"run","d":{"version":1,"engine":"sim","nthreads":1,"binding":"BS"}}`,
}

// TestEnvelopeDecodesLikeJSON is TestEventLineDecodesLikeJSON for the lines
// that are not chunk events, and checks that the encoder's own lines do take
// the in-place split: tag and payload are the ones encoding/json finds.
func TestEnvelopeDecodesLikeJSON(t *testing.T) {
	accepted := 0
	// Nesting: a payload is one level shallower than its line, so at
	// encoding/json's limit of 10000 only the whole line gives its verdict.
	for _, line := range append(envelopeCases,
		`{"t":"iv","d":{"tid":0,"x":`+deep(10000-2)+`}}`, `{"t":"iv","d":{"tid":0,"x":`+deep(10000-1)+`}}`) {
		if checkAgainstReference(t, headerLines(t)+line+"\n") != nil {
			accepted++
		}
	}
	if accepted != 13 {
		t.Errorf("%d of the cases were accepted, want 13: the table no longer tests what it says", accepted)
	}
	rec, err := DecodeJSONL(strings.NewReader(headerLines(t) + envelopeCases[10] + "\n"))
	if err != nil || len(rec.Loops) != 2 || len(rec.Events) != 1 || rec.Events[0] != (ChunkEvent{Hi: 1}) {
		t.Errorf("%s decodes to %+v, %v; want one event and no third loop", envelopeCases[10], rec, err)
	}

	whole := encodeBoth(t, sampleRecord())
	for _, line := range bytes.Split(bytes.TrimSuffix(whole, []byte("\n")), []byte("\n")) {
		var env jsonlLine
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatal(err)
		}
		tag, payload, ok := splitEnvelope(line)
		if !ok || string(tag) != env.T || !bytes.Equal(payload, env.D) {
			t.Errorf("splitEnvelope(%s) = %q, %q, %v; encoding/json finds %q, %q", line, tag, payload, ok, env.T, env.D)
		}
	}
}

// phaseKinds are kinds of every sort appendJSONString meets: the AID
// machines' own, empty, and ones json.Marshal escapes (the HTML characters,
// a quote, a backslash, a control character, U+2028, invalid UTF-8) or
// leaves alone although they are not plain (é).
var phaseKinds = []string{"r-initial", "r-smoothed", "tail-switch", "sf-published", "",
	"<>&", "q\"uote", `back\slash`, "tab\t", "line\u2028sep", "bad\xffutf8", "é"}

// randomSF draws an SF array: nil, empty, or one to three values.
func randomSF(rng *rand.Rand) []float64 {
	switch n := rng.Intn(6) - 2; {
	case n == -2:
		return nil
	case n == -1:
		return []float64{}
	default:
		sf := make([]float64, n+1)
		for i := range sf {
			sf[i] = randomFloat(rng)
		}
		return sf
	}
}

// checkLineCodec checks one line of a per-event type against encoding/json:
// the writer's line is json.Marshal's, the length function counts it (or
// bounds it, unless exact), and the reader takes it exactly when takes says
// so and then reads what json.Unmarshal reads from it.
func checkLineCodec[T any](t *testing.T, tag string, v *T, line []byte, n int, exact bool, parse func([]byte, *T) bool, takes bool) {
	t.Helper()
	if want := marshalLine(t, tag, v); !bytes.Equal(line, want) {
		t.Fatalf("%+v:\n got %s\nwant %s", *v, line, want)
	}
	if n < len(line) || exact && n != len(line) {
		t.Fatalf("length %d for the %d-byte line %s (exact: %v)", n, len(line), line, exact)
	}
	var got T
	if ok := parse(bytes.TrimSuffix(line, []byte("\n")), &got); ok != takes {
		t.Fatalf("the in-place reader takes %s: %v, want %v", line, ok, takes)
	} else if !ok {
		return
	}
	var env jsonlLine
	var want T
	if err := json.Unmarshal(line, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.D, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s reads in place as %+v, encoding/json reads %+v", line, got, want)
	}
}

// TestPerEventLinesMatchJSON is TestEventLineMatchesJSON for phase, SF-sample
// and interval lines: for randomized values each writer's bytes are
// json.Marshal's and its length function counts them; the in-place reader
// takes every line whose kind is plain and whose SF array has values, and
// reads it to what json.Unmarshal reads.
func TestPerEventLinesMatchJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	kinds := map[string]string{}
	parsePhase := func(line []byte, p *PhaseEvent) bool { return parsePhaseLine(line, p, kinds) }
	for i := 0; i < 20000; i++ {
		p := PhaseEvent{TimeNs: randomInt(rng), Tid: int(randomInt(rng)), Loop: int(randomInt(rng)),
			Epoch: int(randomInt(rng)), Kind: phaseKinds[rng.Intn(len(phaseKinds))], SF: randomSF(rng)}
		checkLineCodec(t, linePhase, &p, appendPhaseLine(nil, &p), phaseLineLen(&p), isPlain(p.Kind),
			parsePhase, isPlain(p.Kind) && len(p.SF) > 0)
		s := SFSample{TimeNs: randomInt(rng), Loop: int(randomInt(rng)), SF: randomSF(rng)}
		checkLineCodec(t, lineSF, &s, appendSFLine(nil, &s), sfLineLen(&s), true, parseSFLine, len(s.SF) > 0)
		iv := IntervalRecord{Tid: int(randomInt(rng)), StartNs: randomInt(rng), EndNs: randomInt(rng), State: State(randomInt(rng))}
		checkLineCodec(t, lineInterval, &iv, appendIntervalLine(nil, &iv), intervalLineLen(&iv), true, parseIntervalLine, true)
	}
	if len(kinds) != 5 {
		t.Errorf("the phase reader interned %d kinds, want the 5 plain ones: %q", len(kinds), kinds)
	}
}

// inPlaceLines are phase, SF-sample and interval lines spelled as the encoder
// spells them: the in-place readers take them.
var inPlaceLines = []string{
	`{"t":"phase","d":{"time_ns":300,"tid":3,"loop":0,"epoch":1,"kind":"r-initial","sf":[2.5,1]}}`,
	`{"t":"phase","d":{"time_ns":-5,"tid":0,"loop":1,"epoch":0,"kind":"","sf":[1.508450704225352,1.0158730158730158,0]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":1,"sf":[1e-7,1e+21,5e-324,-0]}}`,
	`{"t":"sf","d":{"time_ns":0,"loop":0,"sf":[100000000000000,1000000000000000,0.000001]}}`,
	`{"t":"iv","d":{"tid":0,"start_ns":100,"end_ns":104,"state":1}}`,
	`{"t":"iv","d":{"tid":3,"start_ns":-9223372036854775808,"end_ns":9223372036854775807,"state":-1}}`,
}

// fallThroughLines are phase, SF-sample and interval lines that the in-place
// readers refuse, each spelled a way the encoder would not (or, for an SF
// array that is absent, null or empty, a way that leaves nil and empty to
// encoding/json): encoding/json decides them, and the decoder must agree.
var fallThroughLines = []string{
	// kinds json.Marshal escapes, escaped and raw
	`{"t":"phase","d":{"time_ns":1,"tid":0,"loop":0,"epoch":1,"kind":"\u003c\u003e\u0026","sf":[1]}}`,
	`{"t":"phase","d":{"time_ns":1,"tid":0,"loop":0,"epoch":1,"kind":"<>&","sf":[1]}}`,
	`{"t":"phase","d":{"time_ns":1,"tid":0,"loop":0,"epoch":1,"kind":"a\u2028b","sf":[1]}}`,
	"{\"t\":\"phase\",\"d\":{\"time_ns\":1,\"tid\":0,\"loop\":0,\"epoch\":1,\"kind\":\"a\u2028b\",\"sf\":[1]}}",
	`{"t":"phase","d":{"time_ns":1,"tid":0,"loop":0,"epoch":1,"kind":"q\"uote","sf":[1]}}`,
	`{"t":"phase","d":{"time_ns":1,"tid":0,"loop":0,"epoch":1,"kind":"\u0072-initial","sf":[1]}}`,
	"{\"t\":\"phase\",\"d\":{\"time_ns\":1,\"tid\":0,\"loop\":0,\"epoch\":1,\"kind\":\"bad\xffutf8\",\"sf\":[1]}}",
	// an SF array absent (a phase's nil or empty), null or empty
	`{"t":"phase","d":{"time_ns":800,"tid":1,"loop":0,"epoch":2,"kind":"tail-switch"}}`,
	`{"t":"phase","d":{"time_ns":800,"tid":1,"loop":0,"epoch":2,"kind":"tail-switch","sf":[]}}`,
	`{"t":"phase","d":{"time_ns":800,"tid":1,"loop":0,"epoch":2,"kind":"tail-switch","sf":null}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":null}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0}}`,
	// numbers json.Marshal spells otherwise: exponent forms, trailing zeros,
	// -0 in an integer field
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[2.5e0,1]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[1E5]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[1e21]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[0.0000001]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[2.50,1.0]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[1e999]}}`,
	`{"t":"iv","d":{"tid":-0,"start_ns":100,"end_ns":104,"state":1}}`,
	`{"t":"phase","d":{"time_ns":300,"tid":1,"loop":0,"epoch":1.0,"kind":"r-initial","sf":[2.5,1]}}`,
	// reordered keys, inserted spaces, a key repeated
	`{"t":"sf","d":{"loop":1,"time_ns":300,"sf":[1]}}`,
	`{"t":"iv","d":{"tid":0, "start_ns":100,"end_ns":104,"state":1}}`,
	`{"t":"phase","d":{"time_ns":300,"tid":1,"loop":0,"epoch":1,"kind":"r-initial","sf":[2.5, 1]}}`,
	`{"t":"iv","d":{"tid":0,"start_ns":100,"end_ns":104,"state":1,"state":2}}`,
	// not JSON, or not a value of the type
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[NaN]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[1,]}}`,
	`{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[1}}`,
	`{"t":"iv","d":{"tid":0,"start_ns":100,"end_ns":104,"state":1.5}}`,
	`{"t":"phase","d":{"time_ns":300,"tid":1,"loop":0,"epoch":1,"kind":"r-initial","sf":[2.5,1]}} `,
	`{"t":"phase","d":{"time_ns":300,"tid":1,"loop":0,"epoch":1,"kind":r-initial,"sf":[2.5,1]}}`,
}

// TestPerEventLinesDecodeLikeJSON feeds every case, after a run header and
// two loop descriptors, to the decoder and to the reference: they agree on
// acceptance and on the record, the encoder's own spellings are read in
// place, and the others are not.
func TestPerEventLinesDecodeLikeJSON(t *testing.T) {
	accepted := 0
	for _, line := range inPlaceLines {
		if _, ok := rewriteInPlace([]byte(line)); !ok {
			t.Errorf("no in-place reader takes the encoder's own spelling %s", line)
		}
		if checkAgainstReference(t, headerLines(t)+line+"\n") == nil {
			t.Errorf("%s does not decode", line)
		}
	}
	for _, line := range fallThroughLines {
		if _, ok := rewriteInPlace([]byte(line)); ok {
			t.Errorf("an in-place reader takes %s, which it must leave to encoding/json", line)
		}
		if checkAgainstReference(t, headerLines(t)+line+"\n") != nil {
			accepted++
		}
	}
	if accepted != 24 {
		t.Errorf("%d of the fall-through cases were accepted, want 24: the table no longer tests what it says", accepted)
	}
}

// headerLines is a record's run header and one loop descriptor: what an event
// line needs in front of it to be looked at.
func headerLines(t testing.TB) string {
	t.Helper()
	r := sampleRecord()
	r.Loops, r.Events, r.Phases, r.SFSamples, r.Timeline = r.Loops[:2], nil, nil, nil, nil
	return string(encodeBoth(t, r))
}

// withEventCount gives the run header at the start of data, which must count
// no events, the count n.
func withEventCount(data string, n int64) string {
	return strings.Replace(data, "}}\n", fmt.Sprintf(`,"events":%d}}`, n)+"\n", 1)
}

// checkAgainstReference decodes data both ways and reports any disagreement;
// it returns the decoded record when both accepted.
func checkAgainstReference(t testing.TB, data string) *Record {
	t.Helper()
	got, gotErr := DecodeJSONL(strings.NewReader(data))
	want, wantErr := decodeJSONLRef(strings.NewReader(data))
	show := data
	if len(show) > 300 {
		show = show[:300] + "..."
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q:\nDecodeJSONL error: %v\nencoding/json error: %v", show, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\nDecodeJSONL:   %+v\nencoding/json: %+v", show, got.Events, want.Events)
	}
	return got
}

// FuzzDecodeJSONL: the decoder never panics; it accepts exactly the streams
// the encoding/json path accepted and decodes them to the same record; a line
// an in-place reader accepts is the line its writer writes for what it read;
// and the events, SF samples and timeline of a record the decoder produced
// survive their re-encoding. (The header, loop and phase lines do not always,
// on either path: an explicit "migrations":[] comes back nil, and so does a
// phase's "sf":[], which the encoder leaves out.)
func FuzzDecodeJSONL(f *testing.F) {
	head := headerLines(f)
	for _, line := range eventLineCases {
		f.Add([]byte(head + line + "\n"))
	}
	for _, e := range narrowEdges {
		f.Add([]byte(head + eventLineWith(e.field, e.past) + "\n"))
	}
	f.Add(encodeBoth(f, sampleRecord()))
	f.Add([]byte(head))
	f.Add([]byte(withEventCount(head, 1<<40)))
	for _, line := range envelopeCases {
		f.Add([]byte(head + line + "\n"))
	}
	for _, line := range append(inPlaceLines, fallThroughLines...) {
		f.Add([]byte(head + line + "\n"))
	}
	f.Add(encodeBoth(f, wildRecord(rand.New(rand.NewSource(1)))))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			if back, ok := rewriteInPlace(sc.Bytes()); ok && string(back) != sc.Text()+"\n" {
				t.Fatalf("an in-place reader accepts %q, which its writer spells %q", sc.Text(), back)
			}
		}
		rec := checkAgainstReference(t, string(data))
		if rec == nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeJSONL(&buf, rec); err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		back, err := DecodeJSONL(&buf)
		if err != nil {
			t.Fatalf("decoding the re-encoded record: %v", err)
		}
		if !reflect.DeepEqual(back.Events, rec.Events) {
			t.Fatalf("re-encoding changed the events:\n got %+v\nwant %+v", back.Events, rec.Events)
		}
		if !reflect.DeepEqual(back.SFSamples, rec.SFSamples) || !reflect.DeepEqual(back.Timeline, rec.Timeline) {
			t.Fatalf("re-encoding changed the SF samples or the timeline:\n got %+v %+v\nwant %+v %+v",
				back.SFSamples, back.Timeline, rec.SFSamples, rec.Timeline)
		}
	})
}

// rewriteInPlace reads line with whichever in-place reader takes it and
// returns what that line type's writer spells for the value read.
func rewriteInPlace(line []byte) ([]byte, bool) {
	var ev ChunkEvent
	var p PhaseEvent
	var s SFSample
	var iv IntervalRecord
	switch {
	case parseEventLine(line, &ev):
		return appendEventLine(nil, &ev), true
	case parsePhaseLine(line, &p, map[string]string{}):
		return appendPhaseLine(nil, &p), true
	case parseSFLine(line, &s):
		return appendSFLine(nil, &s), true
	case parseIntervalLine(line, &iv):
		return appendIntervalLine(nil, &iv), true
	}
	return nil, false
}

// TestNonFiniteCostRejected: a NaN or infinite chunk cost has no JSON form.
// Validate names the event, so EncodeJSONL refuses before its first byte
// (json.Marshal used to fail in the middle of the stream) and replay.Exact,
// which validates first, never sees such a record.
func TestNonFiniteCostRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := sampleRecord()
		r.Events[1].Cost = bad
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), "event 1 ") {
			t.Errorf("cost %v: Validate = %v, want an error naming event 1", bad, err)
		}
		var buf bytes.Buffer
		if err := EncodeJSONL(&buf, r); err == nil {
			t.Errorf("cost %v: EncodeJSONL succeeded", bad)
		}
		if buf.Len() != 0 {
			t.Errorf("cost %v: EncodeJSONL wrote %d bytes before failing", bad, buf.Len())
		}
	}
}

// TestEventCodecAllocs is the codec's allocation gate: encoding allocates
// nothing per event, and decoding allocates the event array once, sized by the
// run header's count, and nothing per line.
func TestEventCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 4096
	r := sampleRecord()
	r.Phases, r.SFSamples, r.Timeline = nil, nil, nil
	r.Events = r.Events[:0]
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		r.Events = append(r.Events, ChunkEvent{Seq: int64(i), TimeNs: int64(i) * 37, Tid: int32(i % r.NThreads), Loop: int32(i % 2),
			Lo: int64(i), Hi: int64(i) + 1 + rng.Int63n(64), Shard: int32(i % 2), Origin: rng.Int31n(3) - 1,
			Cost: rng.Float64() * 1e5, ExecNs: rng.Int63n(1e6), PoolAccesses: int16(rng.Intn(3)), Timestamps: int16(rng.Intn(2))})
	}
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, r); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes()) // encode below rewrites buf
	// The lines around the events (header, two loops) and the writer's and the
	// scanner's buffers are per call, not per event: measure them on the
	// record without events and take them off.
	bare := *r
	bare.Events = nil
	var bareBuf bytes.Buffer
	if err := EncodeJSONL(&bareBuf, &bare); err != nil {
		t.Fatal(err)
	}
	bareData := bareBuf.Bytes()
	encode := func(rec *Record) float64 {
		return testing.AllocsPerRun(20, func() {
			buf.Reset()
			if err := EncodeJSONL(&buf, rec); err != nil {
				t.Fatal(err)
			}
		})
	}
	decode := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeJSONL(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if per := (encode(r) - encode(&bare)) / n; per > 0 {
		t.Errorf("EncodeJSONL: %.4f allocations per event, want 0", per)
	}
	if per := (decode(data) - decode(bareData)) / n; per > 0.01 {
		t.Errorf("DecodeJSONL: %.4f allocations per event, want at most 0.01", per)
	}
}

// allocatedBytes is the number of bytes f allocates per call, averaged over
// runs calls after one that warms up; like testing.AllocsPerRun, it runs them
// on one processor.
func allocatedBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// recordEvents records n one-iteration grants on one loop with a new
// Recorder, reserving nothing, and returns the record.
func recordEvents(t testing.TB, n int) *Record {
	rec := NewRecorder()
	if err := rec.BeginRun(RunMeta{Engine: "sim", Platform: PlatformRecordOf(amp.PlatformA()), NThreads: 4, Binding: "BS"}); err != nil {
		t.Fatal(err)
	}
	li := rec.AddLoop(LoopRecord{Name: "l", NI: int64(n), Scheduler: "dynamic"})
	for i := 0; i < n; i++ {
		rec.Chunk(ChunkEvent{TimeNs: int64(i), Tid: int32(i % 4), Loop: int32(li), Lo: int64(i), Hi: int64(i) + 1, Cost: 1})
	}
	return rec.Record()
}

// TestEventArrayBytes is the byte-level gate of the event arrays, over a
// small stream, the recorded burst of the sim_figures benchmark (21 725
// events) and one past the decoder's reservation cap:
//
//   - a Recorder without a reservation allocates at most 2.2n events for n
//     (blocks, then one exact copy), where an array that doubles took up to 4n,
//     and a warm one, whose blocks come from the pools an earlier recording
//     handed them back to, at most 1.2n;
//   - DecodeJSONL of an encoded n-event record, whose header counts them,
//     allocates at most 1.2n up to the cap and the Recorder's 2.2n past it;
//   - a header that claims 1<<40 events and has none is refused for no more
//     than the cap.
func TestEventArrayBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	size := float64(unsafe.Sizeof(ChunkEvent{}))
	recordBare := allocatedBytes(5, func() { recordEvents(t, 0) })
	var bare bytes.Buffer
	if err := EncodeJSONL(&bare, recordEvents(t, 0)); err != nil {
		t.Fatal(err)
	}
	decodeBare := allocatedBytes(5, func() {
		if _, err := DecodeJSONL(bytes.NewReader(bare.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	for _, n := range []int{10, 21_725, 100_000} {
		r := recordEvents(t, n)
		for i := range r.Events {
			if r.Events[i].Seq != int64(i) || r.Events[i].Lo != int64(i) {
				t.Fatalf("n=%d: event %d is %+v", n, i, r.Events[i])
			}
		}
		recorded := allocatedBytes(3, func() { recordEvents(t, n) }) - recordBare
		if recorded > 2.2*float64(n)*size {
			t.Errorf("Recorder: %.0f bytes for %d events, %.2f times their size, want at most 2.2", recorded, n, recorded/(float64(n)*size))
		}
		if n > 10 {
			// With the GC off nothing empties the block pools, so every
			// recording after allocatedBytes's first is a warm one.
			gc := debug.SetGCPercent(-1)
			warm := allocatedBytes(3, func() { recordEvents(t, n) }) - recordBare
			debug.SetGCPercent(gc)
			if warm > 1.2*float64(n)*size {
				t.Errorf("warm Recorder: %.0f bytes for %d events, %.2f times their size, want at most 1.2", warm, n, warm/(float64(n)*size))
			}
			t.Logf("%d events: warm Recorder %.2f times their size", n, warm/(float64(n)*size))
		}
		var buf bytes.Buffer
		if err := EncodeJSONL(&buf, r); err != nil {
			t.Fatal(err)
		}
		limit := 1.2
		if n > maxEventReservation {
			limit = 2.2
		}
		got := allocatedBytes(3, func() {
			if back, err := DecodeJSONL(bytes.NewReader(buf.Bytes())); err != nil || len(back.Events) != n {
				t.Fatalf("n=%d: decoded %v", n, err)
			}
		}) - decodeBare
		if got > limit*float64(n)*size {
			t.Errorf("DecodeJSONL: %.0f bytes for %d events, %.2f times their size, want at most %.1f", got, n, got/(float64(n)*size), limit)
		}
		t.Logf("%d events: Recorder %.2f, DecodeJSONL %.2f times their size", n, recorded/(float64(n)*size), got/(float64(n)*size))
	}
	forged := []byte(withEventCount(bare.String(), 1<<40))
	got := allocatedBytes(3, func() {
		if _, err := DecodeJSONL(bytes.NewReader(forged)); err == nil {
			t.Fatal("a header claiming 1<<40 events and none behind it decodes")
		}
	}) - decodeBare
	if got > maxEventReservation*size+64<<10 {
		t.Errorf("a forged event count costs %.0f bytes, want at most the %d-event reservation", got, maxEventReservation)
	}
}
