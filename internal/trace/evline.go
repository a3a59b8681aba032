package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// This file is the codec of the JSONL format's chunk-event lines,
//
//	{"t":"ev","d":{"seq":0,"time_ns":12,"tid":1,"loop":0,"lo":0,"hi":8,"shard":1,"cost":64,"exec_ns":40,"pool":1}}
//
// which are all but a handful of a record's lines. It writes and reads them
// without reflection: the bytes are the ones encoding/json produces for the
// ChunkEvent struct tags (field order, omitempty, its float format), and the
// reader accepts what encoding/json accepts — any key order and spacing,
// unknown and repeated keys, keys matched without regard to case, null for
// "leave the field alone" — and rejects what it rejects. The other five line
// types stay on encoding/json; the envelope is read here for all of them.

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

// nextEvent extends evs by one zero event and returns it with the slice. A
// full array doubles: a record's stream is long, and append's quarter steps
// would allocate five times its final size on the way there, not twice.
func nextEvent(evs []ChunkEvent) ([]ChunkEvent, *ChunkEvent) {
	if len(evs) == cap(evs) {
		evs = append(make([]ChunkEvent, 0, max(2*cap(evs), 16)), evs...)
	}
	evs = append(evs, ChunkEvent{})
	return evs, &evs[len(evs)-1]
}

// maxDepth is how deeply a line's arrays and objects may nest, envelope
// included: encoding/json's limit.
const maxDepth = 10000

// lineReader reads one line of JSON text from the front; every method leaves
// i behind what it consumed. The methods check all of the grammar they pass
// over, skipped values included, so a line is either valid JSON or an error.
type lineReader struct {
	b []byte
	i int
}

func (r *lineReader) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", r.i, fmt.Sprintf(format, args...))
}

// peek returns the next byte after any white space, 0 at the end of the line.
func (r *lineReader) peek() byte {
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; c {
		case ' ', '\t', '\r', '\n':
		case 0:
			return 0xff // a NUL in the text is not the end of it; no value starts with either
		default:
			return c
		}
	}
	return 0
}

// end checks that nothing but white space is left.
func (r *lineReader) end() error {
	if r.peek() != 0 {
		return r.errorf("invalid character %q after the line's value", r.b[r.i])
	}
	return nil
}

// text reads a string and returns what stands between its quotes, untouched,
// and whether that holds escape sequences.
func (r *lineReader) text() (raw []byte, escaped bool, err error) {
	if r.peek() != '"' {
		return nil, false, r.errorf("expected a string")
	}
	r.i++
	start := r.i
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1], escaped, nil
		case c < ' ':
			return nil, false, r.errorf("control character %q in string", c)
		case c == '\\':
			escaped = true
			if r.i++; r.i == len(r.b) {
				return nil, false, r.errorf("unterminated string")
			}
			switch r.b[r.i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
			case 'u':
				for k := 1; k <= 4; k++ {
					if r.i+k >= len(r.b) || !isHex(r.b[r.i+k]) {
						return nil, false, r.errorf("bad \\u escape in string")
					}
				}
				r.i += 4
			default:
				return nil, false, r.errorf("bad escape \\%c in string", r.b[r.i])
			}
		}
	}
	return nil, false, r.errorf("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote resolves the escape sequences of a string that text returned.
func unquote(raw []byte, escaped bool) ([]byte, error) {
	if !escaped {
		return raw, nil
	}
	var s string
	if err := json.Unmarshal(append(append([]byte{'"'}, raw...), '"'), &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// number reads a number and returns its text.
func (r *lineReader) number() ([]byte, error) {
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		return nil, r.errorf("expected a number")
	}
	start := r.i
	digits := func() bool {
		from := r.i
		for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
			r.i++
		}
		return r.i > from
	}
	at := func(c byte) bool { return r.i < len(r.b) && r.b[r.i] == c }
	if at('-') {
		r.i++
	}
	if at('0') {
		r.i++
	} else if !digits() {
		return nil, r.errorf("no digits in number")
	}
	if at('.') {
		if r.i++; !digits() {
			return nil, r.errorf("no digits after the decimal point")
		}
	}
	if at('e') || at('E') {
		if r.i++; at('+') || at('-') {
			r.i++
		}
		if !digits() {
			return nil, r.errorf("no digits in the exponent")
		}
	}
	return r.b[start:r.i], nil
}

// word reads the literal w (true, false or null).
func (r *lineReader) word(w string) error {
	r.peek()
	if !bytes.HasPrefix(r.b[r.i:], []byte(w)) {
		return r.errorf("invalid literal, expected %s", w)
	}
	r.i += len(w)
	return nil
}

// null reads a null if one is next. A null member leaves its field alone.
func (r *lineReader) null() (bool, error) {
	if r.peek() != 'n' {
		return false, nil
	}
	return true, r.word("null")
}

// enter reads the opening brace of an object around which depth arrays and
// objects are already open.
func (r *lineReader) enter(depth int) error {
	if r.peek() != '{' {
		return r.errorf("expected an object")
	}
	if depth+1 > maxDepth {
		return r.errorf("exceeded max depth")
	}
	r.i++
	return nil
}

// key reads the next member's key, escape sequences resolved, and its colon;
// done reports that the closing brace stood there instead. first says that no
// member has been read since enter.
func (r *lineReader) key(first bool) (key []byte, done bool, err error) {
	switch c := r.peek(); {
	case c == '}':
		r.i++
		return nil, true, nil
	case first:
	case c == ',':
		r.i++
	default:
		return nil, false, r.errorf("expected , or } in object")
	}
	raw, escaped, err := r.text()
	if err != nil {
		return nil, false, err
	}
	if key, err = unquote(raw, escaped); err != nil {
		return nil, false, err
	}
	if r.peek() != ':' {
		return nil, false, r.errorf("expected : after object key")
	}
	r.i++
	return key, false, nil
}

// skip reads one value of any kind; depth counts the arrays and objects
// already open around it.
func (r *lineReader) skip(depth int) error {
	switch c := r.peek(); {
	case c == '"':
		_, _, err := r.text()
		return err
	case c == 't':
		return r.word("true")
	case c == 'f':
		return r.word("false")
	case c == 'n':
		return r.word("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := r.number()
		return err
	case c == '[':
		if depth++; depth > maxDepth {
			return r.errorf("exceeded max depth")
		}
		r.i++
		if r.peek() == ']' {
			r.i++
			return nil
		}
		for {
			if err := r.skip(depth); err != nil {
				return err
			}
			switch r.peek() {
			case ',':
				r.i++
			case ']':
				r.i++
				return nil
			default:
				return r.errorf("expected , or ] in array")
			}
		}
	case c == '{':
		if err := r.enter(depth); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, done, err := r.key(first)
			if err != nil || done {
				return err
			}
			if err := r.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == 0:
		return r.errorf("unexpected end of JSON input")
	default:
		return r.errorf("invalid character %q looking for a value", r.b[r.i])
	}
}

// keyIs reports whether an object key selects the struct field tagged name,
// as encoding/json matches them: exactly, or else under Unicode case folding.
func keyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// splitLine reads a line's envelope {"t":tag,"d":payload} the way
// json.Unmarshal fills a struct of a string and a json.RawMessage: the last t
// and the last d count, a null t is no t, other keys are passed over. tag and
// payload point into line; payload is nil when the line has no d.
func splitLine(line []byte) (tag, payload []byte, err error) {
	r := &lineReader{b: line}
	if isNull, err := r.null(); isNull {
		if err == nil {
			err = r.end()
		}
		return nil, nil, err
	}
	if err := r.enter(0); err != nil {
		return nil, nil, err
	}
	for first := true; ; first = false {
		key, done, err := r.key(first)
		if err != nil {
			return nil, nil, err
		}
		if done {
			return tag, payload, r.end()
		}
		switch {
		case keyIs(key, "t"):
			if isNull, err := r.null(); isNull {
				if err != nil {
					return nil, nil, err
				}
				continue
			}
			raw, escaped, err := r.text()
			if err != nil {
				return nil, nil, err
			}
			if tag, err = unquote(raw, escaped); err != nil {
				return nil, nil, err
			}
		case keyIs(key, "d"):
			r.peek()
			start := r.i
			if err := r.skip(1); err != nil {
				return nil, nil, err
			}
			payload = line[start:r.i]
		default:
			if err := r.skip(1); err != nil {
				return nil, nil, err
			}
		}
	}
}

// The keys of a chunk-event payload, in ChunkEvent's order.
const (
	keySeq = iota
	keyTimeNs
	keyTid
	keyLoop
	keyLo
	keyHi
	keyShard
	keyOrigin
	keyCost
	keyExecNs
	keyPool
	keyTs
	keyRetire
)

var eventKeys = [...]string{
	keySeq: "seq", keyTimeNs: "time_ns", keyTid: "tid", keyLoop: "loop", keyLo: "lo", keyHi: "hi",
	keyShard: "shard", keyOrigin: "origin", keyCost: "cost", keyExecNs: "exec_ns", keyPool: "pool",
	keyTs: "ts", keyRetire: "retire",
}

// eventKey returns key's index in eventKeys, -1 for a key that selects no
// field. Keys spelled as the encoder spells them never reach the folding.
func eventKey(key []byte) int {
	for i, name := range eventKeys {
		if string(key) == name {
			return i
		}
	}
	for i, name := range eventKeys {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// int is integer for a field of type int.
func (r *lineReader) int() (int, error) {
	v, err := r.integer(strconv.IntSize)
	return int(v), err
}

// integer reads an integer literal that fits bits bits: the only thing
// encoding/json puts into an integer field.
func (r *lineReader) integer(bits int) (int64, error) {
	tok, err := r.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, r.errorf("number %s does not fit the integer field", tok)
	}
	return v, nil
}

// decodeEvent fills ev from a chunk-event payload the way json.Unmarshal
// does: a repeated key overwrites, null leaves the field as it is, a value of
// the wrong kind for its field is an error, an unknown key is passed over. ev
// should come in zero.
func decodeEvent(payload []byte, ev *ChunkEvent) error {
	r := &lineReader{b: payload}
	if isNull, err := r.null(); isNull {
		if err == nil {
			err = r.end()
		}
		return err
	}
	if err := r.enter(0); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, done, err := r.key(first)
		if err != nil {
			return err
		}
		if done {
			return r.end()
		}
		field := eventKey(key)
		if field < 0 {
			if err := r.skip(1); err != nil {
				return err
			}
			continue
		}
		if isNull, err := r.null(); isNull {
			if err != nil {
				return err
			}
			continue
		}
		switch field {
		case keySeq:
			ev.Seq, err = r.integer(64)
		case keyTimeNs:
			ev.TimeNs, err = r.integer(64)
		case keyTid:
			ev.Tid, err = r.int()
		case keyLoop:
			ev.Loop, err = r.int()
		case keyLo:
			ev.Lo, err = r.integer(64)
		case keyHi:
			ev.Hi, err = r.integer(64)
		case keyShard:
			ev.Shard, err = r.int()
		case keyOrigin:
			ev.Origin, err = r.int()
		case keyCost:
			var tok []byte
			if tok, err = r.number(); err == nil {
				if ev.Cost, err = strconv.ParseFloat(string(tok), 64); err != nil {
					err = r.errorf("number %s does not fit a float64", tok)
				}
			}
		case keyExecNs:
			ev.ExecNs, err = r.integer(64)
		case keyPool:
			ev.PoolAccesses, err = r.int()
		case keyTs:
			ev.Timestamps, err = r.int()
		case keyRetire:
			switch r.peek() {
			case 't':
				ev.Retire, err = true, r.word("true")
			case 'f':
				ev.Retire, err = false, r.word("false")
			default:
				err = r.errorf("retire holds no boolean")
			}
		}
		if err != nil {
			return err
		}
	}
}
