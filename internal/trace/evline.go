package trace

import (
	"encoding/json"
	"math"
	"strconv"
)

// This file is the codec of the JSONL format's per-event lines, the four
// line types a record has one of per grant, transition, sample or interval:
//
//	{"t":"ev","d":{"seq":0,"time_ns":12,"tid":1,"loop":0,"lo":0,"hi":8,"shard":1,"cost":64,"exec_ns":40,"pool":1}}
//	{"t":"phase","d":{"time_ns":300,"tid":1,"loop":0,"epoch":1,"kind":"r-initial","sf":[1.508450704225352,1]}}
//	{"t":"sf","d":{"time_ns":300,"loop":0,"sf":[1.508450704225352,1]}}
//	{"t":"iv","d":{"tid":0,"start_ns":100,"end_ns":104,"state":1}}
//
// They are all but a handful of a record's lines; the run header and the
// loop descriptors are json.Marshal's (record.go). Each append*Line writes
// its line without reflection, byte for byte as encoding/json spells the
// struct (field order, omitempty, its float and string formats, nil as
// null), and each *LineLen is the length of that line, so that EncodeJSONL
// can reserve a record's bytes before writing them.
//
// Each parse*Line reads back exactly that spelling and nothing else: it
// knows no JSON, only the one way the encoder writes a line. A line spelled
// any other way — other key order, spacing, escapes, unknown or repeated
// keys, null, a number json.Marshal would write differently — is not read
// here at all; DecodeJSONL hands it, whole, to encoding/json. So are an SF
// array that is absent, null or empty and a phase kind that json.Marshal
// escapes: which of nil and empty such a line means, and what an escape
// stands for, is encoding/json's to say. So the readers cannot disagree
// with encoding/json about what JSON is: on the lines they take, the two
// read the same bytes to the same value (TestEventLineMatchesJSON,
// TestPerEventLinesMatchJSON, FuzzDecodeJSONL), and every other line is
// encoding/json's own verdict.

// appendEventLine appends ev's line, newline included, to b. ev.Cost must be
// finite (Record.Validate checks it), as it must be for json.Marshal.
func appendEventLine(b []byte, ev *ChunkEvent) []byte {
	b = append(b, `{"t":"ev","d":{"seq":`...)
	b = strconv.AppendInt(b, ev.Seq, 10)
	b = append(b, `,"time_ns":`...)
	b = strconv.AppendInt(b, ev.TimeNs, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	b = append(b, `,"loop":`...)
	b = strconv.AppendInt(b, int64(ev.Loop), 10)
	b = append(b, `,"lo":`...)
	b = strconv.AppendInt(b, ev.Lo, 10)
	b = append(b, `,"hi":`...)
	b = strconv.AppendInt(b, ev.Hi, 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(ev.Shard), 10)
	if ev.Origin != 0 {
		b = append(b, `,"origin":`...)
		b = strconv.AppendInt(b, int64(ev.Origin), 10)
	}
	if ev.Cost != 0 {
		b = append(b, `,"cost":`...)
		b = appendJSONFloat(b, ev.Cost)
	}
	if ev.ExecNs != 0 {
		b = append(b, `,"exec_ns":`...)
		b = strconv.AppendInt(b, ev.ExecNs, 10)
	}
	if ev.PoolAccesses != 0 {
		b = append(b, `,"pool":`...)
		b = strconv.AppendInt(b, int64(ev.PoolAccesses), 10)
	}
	if ev.Timestamps != 0 {
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, int64(ev.Timestamps), 10)
	}
	if ev.Retire {
		b = append(b, `,"retire":true`...)
	}
	return append(b, "}}\n"...)
}

// eventLineLen is len(appendEventLine(nil, ev)).
func eventLineLen(ev *ChunkEvent) int {
	n := len(`{"t":"ev","d":{"seq":,"time_ns":,"tid":,"loop":,"lo":,"hi":,"shard":}}`+"\n") +
		intLen(ev.Seq) + intLen(ev.TimeNs) + intLen(int64(ev.Tid)) + intLen(int64(ev.Loop)) +
		intLen(ev.Lo) + intLen(ev.Hi) + intLen(int64(ev.Shard))
	if ev.Origin != 0 {
		n += len(`,"origin":`) + intLen(int64(ev.Origin))
	}
	if ev.Cost != 0 {
		n += len(`,"cost":`) + floatLen(ev.Cost)
	}
	if ev.ExecNs != 0 {
		n += len(`,"exec_ns":`) + intLen(ev.ExecNs)
	}
	if ev.PoolAccesses != 0 {
		n += len(`,"pool":`) + intLen(int64(ev.PoolAccesses))
	}
	if ev.Timestamps != 0 {
		n += len(`,"ts":`) + intLen(int64(ev.Timestamps))
	}
	if ev.Retire {
		n += len(`,"retire":true`)
	}
	return n
}

// appendPhaseLine appends p's line, newline included, to b. Every SF value
// must be finite (Record.Validate checks it).
func appendPhaseLine(b []byte, p *PhaseEvent) []byte {
	b = append(b, `{"t":"phase","d":{"time_ns":`...)
	b = strconv.AppendInt(b, p.TimeNs, 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(p.Tid), 10)
	b = append(b, `,"loop":`...)
	b = strconv.AppendInt(b, int64(p.Loop), 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, int64(p.Epoch), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, p.Kind)
	if len(p.SF) != 0 {
		b = append(b, `,"sf":`...)
		b = appendJSONFloats(b, p.SF)
	}
	return append(b, "}}\n"...)
}

// phaseLineLen is len(appendPhaseLine(nil, p)) when p.Kind is plain, and at
// least that otherwise.
func phaseLineLen(p *PhaseEvent) int {
	n := len(`{"t":"phase","d":{"time_ns":,"tid":,"loop":,"epoch":,"kind":}}`+"\n") +
		intLen(p.TimeNs) + intLen(int64(p.Tid)) + intLen(int64(p.Loop)) + intLen(int64(p.Epoch)) +
		stringLen(p.Kind)
	if len(p.SF) != 0 {
		n += len(`,"sf":`) + floatsLen(p.SF)
	}
	return n
}

// appendSFLine appends s's line, newline included, to b. Every SF value must
// be finite (Record.Validate checks it).
func appendSFLine(b []byte, s *SFSample) []byte {
	b = append(b, `{"t":"sf","d":{"time_ns":`...)
	b = strconv.AppendInt(b, s.TimeNs, 10)
	b = append(b, `,"loop":`...)
	b = strconv.AppendInt(b, int64(s.Loop), 10)
	b = append(b, `,"sf":`...)
	b = appendJSONFloats(b, s.SF)
	return append(b, "}}\n"...)
}

// sfLineLen is len(appendSFLine(nil, s)).
func sfLineLen(s *SFSample) int {
	return len(`{"t":"sf","d":{"time_ns":,"loop":,"sf":}}`+"\n") +
		intLen(s.TimeNs) + intLen(int64(s.Loop)) + floatsLen(s.SF)
}

// appendIntervalLine appends iv's line, newline included, to b.
func appendIntervalLine(b []byte, iv *IntervalRecord) []byte {
	b = append(b, `{"t":"iv","d":{"tid":`...)
	b = strconv.AppendInt(b, int64(iv.Tid), 10)
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, iv.StartNs, 10)
	b = append(b, `,"end_ns":`...)
	b = strconv.AppendInt(b, iv.EndNs, 10)
	b = append(b, `,"state":`...)
	b = strconv.AppendInt(b, int64(iv.State), 10)
	return append(b, "}}\n"...)
}

// intervalLineLen is len(appendIntervalLine(nil, iv)).
func intervalLineLen(iv *IntervalRecord) int {
	return len(`{"t":"iv","d":{"tid":,"start_ns":,"end_ns":,"state":}}`+"\n") +
		intLen(int64(iv.Tid)) + intLen(iv.StartNs) + intLen(iv.EndNs) + intLen(int64(iv.State))
}

// appendJSONFloat appends a finite f as encoding/json formats a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21 on, the exponent's leading zero dropped (1e-07 is written 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	if i, ok := whole(f); ok {
		return strconv.AppendInt(b, i, 10)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// whole returns f as an integer when f is a whole number that json.Marshal
// spells as one, with its digits and no point: any below 1e15 in magnitude
// (all of them exact in a float64), but not -0.
func whole(f float64) (int64, bool) {
	i := int64(f)
	return i, float64(i) == f && -1e15 < i && i < 1e15 && (i != 0 || !math.Signbit(f))
}

// appendJSONFloats appends fs as encoding/json formats a []float64: null when
// it is nil, else its finite values between brackets.
func appendJSONFloats(b []byte, fs []float64) []byte {
	if fs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, f)
	}
	return append(b, ']')
}

// appendJSONString appends s as encoding/json formats a string: quoted, and
// as it is when every byte is plain; a string with any other byte is left to
// json.Marshal, whose escapes it would take a copy of encoding/json to repeat.
func appendJSONString(b []byte, s string) []byte {
	if !isPlain(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainByte reports whether json.Marshal writes c, inside a string, as
// itself: printable ASCII other than the quote, the backslash and the three
// characters it escapes for HTML.
func plainByte(c byte) bool {
	return 0x20 <= c && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// isPlain reports whether every byte of s is plain.
func isPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// intLen is the length of v as strconv.AppendInt spells it.
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// floatLen is the length of a finite f as appendJSONFloat spells it: counted
// for a whole number, formatted otherwise.
func floatLen(f float64) int {
	if i, ok := whole(f); ok {
		return intLen(i)
	}
	var tmp [32]byte
	return len(appendJSONFloat(tmp[:0], f))
}

// floatsLen is len(appendJSONFloats(nil, fs)).
func floatsLen(fs []float64) int {
	if fs == nil {
		return len("null")
	}
	n := len("[]") + max(len(fs)-1, 0)
	for _, f := range fs {
		n += floatLen(f)
	}
	return n
}

// stringLen is len(appendJSONString(nil, s)) when s is plain, and a bound on
// it otherwise: encoding/json writes no byte as more than six.
func stringLen(s string) int {
	if isPlain(s) {
		return len(s) + 2
	}
	return 6*len(s) + 2
}

// eventText is what is left of a per-event line while a parse*Line reads
// it. ok turns false at the first byte the line's writer would not have
// written there, and stays false.
type eventText struct {
	b  []byte
	ok bool
}

// lit consumes s if the text starts with it.
func (t *eventText) lit(s string) bool {
	if len(t.b) < len(s) || string(t.b[:len(s)]) != s {
		return false
	}
	t.b = t.b[len(s):]
	return true
}

// integer consumes an integer of at most bits bits, spelled the one way
// strconv.AppendInt spells it: an optional minus, then digits with no
// leading zero, and 0 never negative. The digits are read in place, where
// strconv.ParseInt would need them copied into a string first.
func (t *eventText) integer(bits int) int64 {
	b := t.b
	n := 0
	limit := uint64(1)<<(bits-1) - 1 // the largest magnitude, one more when negative
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n, limit = 1, limit+1
	}
	first := n
	var u uint64
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		u = u*10 + uint64(b[n]-'0')
	}
	t.b = b[n:]
	// 19 digits cannot wrap a uint64, and more are out of range anyway.
	if digits := n - first; digits == 0 || digits > 19 || u > limit || b[first] == '0' && (digits > 1 || neg) {
		t.ok = false
		return 0
	}
	if neg {
		return -int64(u) // u = 2^63 wraps to itself, which is -2^63
	}
	return int64(u)
}

// required reads a field the encoder always writes.
func (t *eventText) required(key string, bits int) int64 {
	t.ok = t.lit(key) && t.ok
	return t.integer(bits)
}

// optional reads a field the encoder leaves out when it is zero: the key is
// absent, or its value is not zero.
func (t *eventText) optional(key string, bits int) int64 {
	if !t.lit(key) {
		return 0
	}
	v := t.integer(bits)
	t.ok = t.ok && v != 0
	return v
}

// float consumes a finite number that appendJSONFloat writes back to the
// same bytes. (ParseFloat alone also reads Inf, hexadecimal and 1.50.)
func (t *eventText) float() float64 {
	n := 0
	for n < len(t.b) && t.b[n] != ',' && t.b[n] != '}' && t.b[n] != ']' {
		n++
	}
	tok := t.b[:n]
	t.b = t.b[n:]
	// A whole number's digits (whole) read faster as an integer.
	if digits := (eventText{b: tok, ok: true}); len(tok) <= 15 {
		if i := digits.integer(64); digits.ok && len(digits.b) == 0 {
			return float64(i)
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	var back [32]byte
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) || string(appendJSONFloat(back[:0], f)) != string(tok) {
		t.ok = false
	}
	return f
}

// cost is optional for the cost field: a non-zero float.
func (t *eventText) cost() float64 {
	if !t.lit(`,"cost":`) {
		return 0
	}
	f := t.float()
	t.ok = t.ok && f != 0
	return f
}

// floats reads the field key holding a non-empty []float64 as
// appendJSONFloats writes it, into a slice of its own length, allocated
// once the values have read.
func (t *eventText) floats(key string) []float64 {
	if !t.lit(key) || !t.lit("[") {
		t.ok = false
		return nil
	}
	var first [8]float64
	fs := first[:0]
	for {
		fs = append(fs, t.float())
		if !t.ok {
			return nil
		}
		if t.lit("]") {
			return append(make([]float64, 0, len(fs)), fs...)
		}
		if !t.lit(",") {
			t.ok = false
			return nil
		}
	}
}

// plain consumes the field key holding a string of plain bytes, and returns
// the string's bytes, which alias the line.
func (t *eventText) plain(key string) []byte {
	if !t.lit(key) || !t.lit(`"`) {
		t.ok = false
		return nil
	}
	n := 0
	for n < len(t.b) && plainByte(t.b[n]) {
		n++
	}
	s := t.b[:n]
	t.b = t.b[n:]
	t.ok = t.lit(`"`) && t.ok
	return s
}

// parseEventLine fills ev from line if line is, byte for byte, what
// appendEventLine writes for some event (without the newline), and reports
// whether it is; that event is then the one encoding/json reads from the
// line. ev must come in zero and holds nothing of use after a false.
func parseEventLine(line []byte, ev *ChunkEvent) bool {
	t := eventText{b: line, ok: true}
	if !t.lit(`{"t":"ev","d":{`) {
		return false
	}
	ev.Seq = t.required(`"seq":`, 64)
	ev.TimeNs = t.required(`,"time_ns":`, 64)
	ev.Tid = int32(t.required(`,"tid":`, 32))
	ev.Loop = int32(t.required(`,"loop":`, 32))
	ev.Lo = t.required(`,"lo":`, 64)
	ev.Hi = t.required(`,"hi":`, 64)
	ev.Shard = int32(t.required(`,"shard":`, 32))
	ev.Origin = int32(t.optional(`,"origin":`, 32))
	ev.Cost = t.cost()
	ev.ExecNs = t.optional(`,"exec_ns":`, 64)
	ev.PoolAccesses = int16(t.optional(`,"pool":`, 16))
	ev.Timestamps = int16(t.optional(`,"ts":`, 16))
	ev.Retire = t.lit(`,"retire":true`)
	return t.lit("}}") && len(t.b) == 0 && t.ok
}

// parsePhaseLine is parseEventLine for a phase line whose kind is plain and
// whose SF array has values. kinds holds the kinds read so far, each as one
// string that every phase of that kind shares; a new kind is added to it.
func parsePhaseLine(line []byte, p *PhaseEvent, kinds map[string]string) bool {
	t := eventText{b: line, ok: true}
	if !t.lit(`{"t":"phase","d":{`) {
		return false
	}
	p.TimeNs = t.required(`"time_ns":`, 64)
	p.Tid = int(t.required(`,"tid":`, strconv.IntSize))
	p.Loop = int(t.required(`,"loop":`, strconv.IntSize))
	p.Epoch = int(t.required(`,"epoch":`, strconv.IntSize))
	kind := t.plain(`,"kind":`)
	p.SF = t.floats(`,"sf":`)
	if !t.lit("}}") || len(t.b) != 0 || !t.ok {
		return false
	}
	var ok bool
	if p.Kind, ok = kinds[string(kind)]; !ok {
		p.Kind = string(kind)
		kinds[p.Kind] = p.Kind
	}
	return true
}

// parseSFLine is parseEventLine for an SF-sample line whose SF array has
// values.
func parseSFLine(line []byte, s *SFSample) bool {
	t := eventText{b: line, ok: true}
	if !t.lit(`{"t":"sf","d":{`) {
		return false
	}
	s.TimeNs = t.required(`"time_ns":`, 64)
	s.Loop = int(t.required(`,"loop":`, strconv.IntSize))
	s.SF = t.floats(`,"sf":`)
	return t.lit("}}") && len(t.b) == 0 && t.ok
}

// parseIntervalLine is parseEventLine for a timeline-interval line.
func parseIntervalLine(line []byte, iv *IntervalRecord) bool {
	t := eventText{b: line, ok: true}
	if !t.lit(`{"t":"iv","d":{`) {
		return false
	}
	iv.Tid = int(t.required(`"tid":`, strconv.IntSize))
	iv.StartNs = t.required(`,"start_ns":`, 64)
	iv.EndNs = t.required(`,"end_ns":`, 64)
	iv.State = State(t.required(`,"state":`, strconv.IntSize))
	return t.lit("}}") && len(t.b) == 0 && t.ok
}
