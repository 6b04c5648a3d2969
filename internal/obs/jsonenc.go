package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// JSONAppender is a value that encodes itself without reflection.
// AppendJSON appends exactly the bytes json.Marshal produces for the
// value, with no trailing newline, and returns the extended buffer. It
// fails where json.Marshal fails on the value's fields: on a NaN or
// infinite float. The bytes appended before a failure are not a
// record; callers drop them.
type JSONAppender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// appendJSON appends the JSON encoding of v: through v's own
// AppendJSON when it has one, else json.Marshal, so cold values
// (listings, snapshots, test maps) keep encoding/json.
func appendJSON(dst []byte, v any) ([]byte, error) {
	if a, ok := v.(JSONAppender); ok {
		return a.AppendJSON(dst)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// jsonHex holds the digits of encoding/json's \u00XX escapes.
const jsonHex = "0123456789abcdef"

// lineSep and paraSep are U+2028 and U+2029, valid in JSON strings
// but not in JavaScript source, so encoding/json always escapes them.
const (
	lineSep = 0x2028
	paraSep = 0x2029
)

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped: printable, and none of '"', '\\', '<', '>' and '&'.
var jsonSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendJSONString appends s as a JSON string, escaped exactly as
// json.Marshal escapes it: '"' and '\\' backslashed; \b, \f, \n, \r
// and \t by name; other control bytes and the HTML-sensitive '<', '>'
// and '&' as \u00XX; each byte of invalid UTF-8 as the escaped
// replacement character (backslash, "ufffd"); and the line and
// paragraph separators U+2028 and U+2029 escaped likewise.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == lineSep || r == paraSep:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f as json.Marshal formats a float64: the
// shortest representation that round-trips, in plain notation unless
// |f| < 1e-6 or |f| >= 1e21, and then with a one-digit negative
// exponent written as e-7, not e-07. NaN and ±Inf, which JSON cannot
// carry, fail as they fail json.Marshal.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("obs: json: unsupported float value %v", f)
	}
	// Below 2^53 every integer is a float64, so an integral value's
	// shortest round-trip digits are its integer digits.
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		if f == 0 && math.Signbit(f) {
			return append(dst, '-', '0'), nil
		}
		return strconv.AppendInt(dst, int64(f), 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b := strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// JSONObject builds one JSON object field by field into a caller's
// buffer, for AppendJSON methods. Fields come out in call order, the
// order json.Marshal takes from a struct's fields; omitempty is the
// caller's condition around the call. The first failing float is
// kept and returned by End. A JSONObject lives on the stack of the
// AppendJSON method that fills it:
//
//	o := obs.NewJSONObject(dst)
//	o.String("area", r.Area)
//	if r.Seq != 0 {
//		o.Int("seq", r.Seq)
//	}
//	o.Key("nested")
//	o.Raw(r.Nested.AppendJSON(o.Bytes()))
//	return o.End()
type JSONObject struct {
	buf  []byte
	err  error
	more bool
}

// NewJSONObject opens an object at the end of dst.
func NewJSONObject(dst []byte) JSONObject {
	return JSONObject{buf: append(dst, '{')}
}

// Key writes the separator and the quoted key of the next field; its
// value follows through Bytes and Raw.
func (o *JSONObject) Key(k string) {
	if o.more {
		o.buf = append(o.buf, ',')
	}
	o.more = true
	o.buf = AppendJSONString(o.buf, k)
	o.buf = append(o.buf, ':')
}

// Bytes returns the buffer so far, for appending a nested value after
// Key.
func (o *JSONObject) Bytes() []byte { return o.buf }

// Raw adopts the buffer a nested appender returned from Bytes, and
// its error.
func (o *JSONObject) Raw(b []byte, err error) {
	o.buf = b
	if err != nil && o.err == nil {
		o.err = err
	}
}

// String writes one string field.
func (o *JSONObject) String(k, v string) {
	o.Key(k)
	o.buf = AppendJSONString(o.buf, v)
}

// Int writes one signed integer field.
func (o *JSONObject) Int(k string, v int64) {
	o.Key(k)
	o.buf = strconv.AppendInt(o.buf, v, 10)
}

// Uint writes one unsigned integer field.
func (o *JSONObject) Uint(k string, v uint64) {
	o.Key(k)
	o.buf = strconv.AppendUint(o.buf, v, 10)
}

// Float writes one float field (see AppendJSONFloat).
func (o *JSONObject) Float(k string, v float64) {
	o.Key(k)
	o.Raw(AppendJSONFloat(o.buf, v))
}

// Bool writes one boolean field.
func (o *JSONObject) Bool(k string, v bool) {
	o.Key(k)
	o.buf = strconv.AppendBool(o.buf, v)
}

// End closes the object and returns the buffer, or the first error.
func (o *JSONObject) End() ([]byte, error) {
	return append(o.buf, '}'), o.err
}
