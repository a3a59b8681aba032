package trace

import (
	"math"
	"strconv"
)

// This file is the codec of the JSONL format's chunk-event lines,
//
//	{"t":"ev","d":{"seq":0,"time_ns":12,"tid":1,"loop":0,"lo":0,"hi":8,"shard":1,"cost":64,"exec_ns":40,"pool":1}}
//
// which are all but a handful of a record's lines. appendEventLine writes
// them without reflection, byte for byte as encoding/json spells the
// ChunkEvent struct tags (field order, omitempty, its float format).
// parseEventLine reads back exactly that spelling and nothing else: it knows
// no JSON, only the one way the encoder writes a line. A line spelled any
// other way — other key order, spacing, escapes, unknown or repeated keys,
// null — is not read here at all; DecodeJSONL hands it, whole, to
// encoding/json. So the reader cannot disagree with encoding/json about what
// JSON is: on the lines it takes, the two read the same bytes to the same
// event (TestEventLineMatchesJSON, FuzzDecodeJSONL), and every other line is
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

// appendJSONFloat appends a finite f as encoding/json formats a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21 on, the exponent's leading zero dropped (1e-07 is written 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
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

// eventText is what is left of a chunk-event line while parseEventLine reads
// it. ok turns false at the first byte appendEventLine would not have
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
	over := false
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		d := uint64(b[n] - '0')
		over = over || u > (limit-d)/10
		u = u*10 + d
	}
	t.b = b[n:]
	if n == first || over || b[first] == '0' && (n-first > 1 || neg) {
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

// cost is optional for the cost field: a finite non-zero number that
// appendJSONFloat writes back to the same bytes. (ParseFloat alone also reads
// Inf, hexadecimal and 1.50.)
func (t *eventText) cost() float64 {
	if !t.lit(`,"cost":`) {
		return 0
	}
	n := 0
	for n < len(t.b) && t.b[n] != ',' && t.b[n] != '}' {
		n++
	}
	tok := t.b[:n]
	t.b = t.b[n:]
	f, err := strconv.ParseFloat(string(tok), 64)
	var back [32]byte
	if err != nil || f == 0 || math.IsInf(f, 0) || math.IsNaN(f) || string(appendJSONFloat(back[:0], f)) != string(tok) {
		t.ok = false
	}
	return f
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
	ev.Tid = int(t.required(`,"tid":`, strconv.IntSize))
	ev.Loop = int(t.required(`,"loop":`, strconv.IntSize))
	ev.Lo = t.required(`,"lo":`, 64)
	ev.Hi = t.required(`,"hi":`, 64)
	ev.Shard = int(t.required(`,"shard":`, strconv.IntSize))
	ev.Origin = int(t.optional(`,"origin":`, strconv.IntSize))
	ev.Cost = t.cost()
	ev.ExecNs = t.optional(`,"exec_ns":`, 64)
	ev.PoolAccesses = int(t.optional(`,"pool":`, strconv.IntSize))
	ev.Timestamps = int(t.optional(`,"ts":`, strconv.IntSize))
	ev.Retire = t.lit(`,"retire":true`)
	return t.lit("}}") && len(t.b) == 0 && t.ok
}
