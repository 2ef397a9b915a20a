package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Deterministic JSON encoding for every service response. The contract
// is byte-identical bodies for identical results, across processes and
// runs: object keys are emitted in sorted order and floating-point
// numbers are formatted with strconv.FormatFloat(f, 'g', -1, 64) — the
// shortest representation that round-trips — rather than encoding/json's
// own float algorithm. Responses are built as map[string]any trees of
// the supported leaf types; an unsupported type is a programming error
// and panics in the response path's encode step.

// encodePool recycles the scratch buffers marshalDet encodes into; the
// result is copied out, so callers own plain immutable slices and the
// buffer's capacity is reused by the next encode.
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledEncodeBuf bounds the buffers the pool retains — a rare huge
// body (an experiment dump) must not pin its capacity forever.
const maxPooledEncodeBuf = 1 << 20

// marshalDet renders v deterministically, with a trailing newline so
// bodies are friendly to curl.
func marshalDet(v any) []byte {
	buf := encodePool.Get().(*bytes.Buffer)
	buf.Reset()
	encodeDet(buf, v)
	buf.WriteByte('\n')
	out := append([]byte(nil), buf.Bytes()...)
	if buf.Cap() <= maxPooledEncodeBuf {
		encodePool.Put(buf)
	}
	return out
}

// MarshalDeterministic is the exported form of the service's
// deterministic JSON encoder, for tools (ipcload) that want their
// reports byte-comparable with the daemon's bodies.
func MarshalDeterministic(v any) []byte { return marshalDet(v) }

func encodeDet(buf *bytes.Buffer, v any) {
	switch x := v.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case string:
		b, err := json.Marshal(x) // string escaping is deterministic
		if err != nil {
			panic(fmt.Sprintf("service: encode string: %v", err))
		}
		buf.Write(b)
	case int:
		buf.WriteString(strconv.FormatInt(int64(x), 10))
	case int64:
		buf.WriteString(strconv.FormatInt(x, 10))
	case uint64:
		buf.WriteString(strconv.FormatUint(x, 10))
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			panic("service: cannot encode non-finite float")
		}
		buf.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			encodeDet(buf, k)
			buf.WriteByte(':')
			encodeDet(buf, x[k])
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			encodeDet(buf, e)
		}
		buf.WriteByte(']')
	case []string:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			encodeDet(buf, e)
		}
		buf.WriteByte(']')
	case []int64:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.FormatInt(e, 10))
		}
		buf.WriteByte(']')
	default:
		panic(fmt.Sprintf("service: cannot encode %T deterministically", v))
	}
}

// Strict one-pass decoding of the flat point bodies of /v1/solve and
// /v1/simulate (DESIGN §12). A body in the canonical subset decodes here
// without allocating: one JSON object, JSON whitespace between tokens
// and after it, keys byte-equal to a field's JSON name, and values that
// are literals of the field's kind (an integer for int and int64, an
// unsigned integer for uint64, a JSON number for float64, true or false
// for bool), a repeated key taking its last value as in encoding/json.
// Every other body — null, strings, nested values, unknown keys, other
// cases, escapes, range errors — falls back to encoding/json, the
// reference FuzzSolveRequest holds this decoder to and the only source
// of a 400's text.

// flatField is one field of a flat request body: its JSON name and
// where its value goes. The destination's type is the field's kind:
// *int, *int64, *uint64, *float64 or *bool.
type flatField struct {
	name string
	dst  any
}

// flatTable holds a request's field table, sized for simulate's eight.
// A table is built by value in its caller's frame: built by append or
// through a pointer, its destinations would move the request decoded
// into to the heap.
type flatTable [8]flatField

// decodeFlat decodes body into q, a *solveRequest or *simulateRequest,
// when body is in the canonical subset, and reports whether it did. It
// decodes into a copy and commits it only on success, so a body that
// falls back leaves q as it was.
func decodeFlat(body []byte, q any) bool {
	switch q := q.(type) {
	case *solveRequest:
		t := *q
		if f, n := t.flatFields(); !scanFlat(body, f[:n]) {
			return false
		}
		*q = t
	case *simulateRequest:
		t := *q
		if f, n := t.flatFields(); !scanFlat(body, f[:n]) {
			return false
		}
		*q = t
	default:
		return false
	}
	return true
}

// scanFlat decodes b into the fields' destinations and reports whether
// b is in the canonical subset; on false the destinations may hold part
// of b.
func scanFlat(b []byte, fields []flatField) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	for {
		if i == len(b) || b[i] != '"' {
			return false
		}
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return false
		}
		f := lookupField(fields, b[i+1:i+1+n])
		if f == nil {
			return false
		}
		i = skipSpace(b, i+n+2)
		if i == len(b) || b[i] != ':' {
			return false
		}
		var ok bool
		if i, ok = f.decode(b, skipSpace(b, i+1)); !ok {
			return false
		}
		if i = skipSpace(b, i); i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

// lookupField finds the field whose JSON name is exactly name.
func lookupField(fields []flatField, name []byte) *flatField {
	for k := range fields {
		if string(name) == fields[k].name {
			return &fields[k]
		}
	}
	return nil
}

// decode stores the literal at b[i:] in f's destination and returns the
// index after it; ok is false when the literal is not of f's kind.
func (f *flatField) decode(b []byte, i int) (end int, ok bool) {
	if d, isBool := f.dst.(*bool); isBool {
		switch {
		case bytes.HasPrefix(b[i:], []byte("true")):
			*d = true
			return i + 4, true
		case bytes.HasPrefix(b[i:], []byte("false")):
			*d = false
			return i + 5, true
		}
		return i, false
	}
	end = scanNumber(b, i)
	if end == i {
		return i, false
	}
	// ParseInt and ParseUint refuse the fractions, exponents and signs
	// the JSON grammar lets through for their kinds.
	tok := string(b[i:end])
	var err error
	switch d := f.dst.(type) {
	case *int:
		var n int64
		n, err = strconv.ParseInt(tok, 10, strconv.IntSize)
		*d = int(n)
	case *int64:
		*d, err = strconv.ParseInt(tok, 10, 64)
	case *uint64:
		*d, err = strconv.ParseUint(tok, 10, 64)
	case *float64:
		*d, err = strconv.ParseFloat(tok, 64)
	default:
		return i, false
	}
	return end, err == nil
}

// scanNumber returns the end of the JSON number at b[i:], or i when
// none starts there.
func scanNumber(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		j = skipDigits(b, j)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			return i
		}
		j = k
	}
	return j
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace skips JSON whitespace: space, tab, CR and LF.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}
