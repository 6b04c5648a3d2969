package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
)

// Request intake. The decide and observe bodies, single and batch, are
// the only per-request input on the serving paths, so they get a strict
// scanner that fills the wire types without reflection. It accepts only
// bodies whose result is provably what encoding/json gives and hands
// every other body, every error included, to encoding/json over the
// same byte stream. Cold bodies (stats updates, snapshots) and the
// fields the scanner leaves out (params) decode through encoding/json
// directly.

// maxRequestBody caps every JSON request body.
const maxRequestBody = 1 << 20

// errTrailingBody rejects request bodies with data after the JSON value.
var errTrailingBody = errors.New("request body contains trailing data")

// decodeStrict decodes the JSON value rd yields into v with
// encoding/json: unknown fields and trailing data are errors.
func decodeStrict(rd io.Reader, v any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingBody
	}
	return nil
}

// hotRequest lists the request types the scanner decodes.
type hotRequest interface {
	DecideRequest | BatchDecideRequest | ObserveRequest | BatchObserveRequest
}

// decodeRequest decodes r's body into v (zero on entry), counting a body
// the scanner leaves to encoding/json in
// http_decode_fallback_total{route}.
func decodeRequest[T hotRequest](s *Server, route string, r *http.Request, v *T) error {
	fast, err := decodeBody(http.MaxBytesReader(nil, r.Body, maxRequestBody), r.ContentLength, v)
	if !fast {
		s.decodeFallback.Get(route).Inc()
	}
	return err
}

// decodeBody reads rd to its end into a pooled buffer and decodes the
// buffer into v (zero on entry), sized by sizeHint when it is known. It
// reports whether the scanner took the body. A body the scanner refuses,
// or a read that fails, goes to decodeStrict over the same byte stream:
// the bytes already read, then the rest of rd, whose reader
// (http.MaxBytesReader) repeats its error. The accept set, the values
// and the error text are therefore encoding/json's.
func decodeBody[T hotRequest](rd io.Reader, sizeHint int64, v *T) (fast bool, err error) {
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if sizeHint > 0 && sizeHint < maxRequestBody {
		buf = slices.Grow(buf, int(sizeHint)+1)
	}
	buf, err = readBody(rd, buf)
	if err == nil && scanBody(buf, v) {
		fast = true
	} else {
		// The scanner may have filled part of v; encoding/json starts
		// from zero, as the caller's value did.
		tmp := new(T)
		err = decodeStrict(io.MultiReader(bytes.NewReader(buf), rd), tmp)
		*v = *tmp
	}
	putBody(bp, buf)
	return fast, err
}

// readBody appends what rd yields to buf until its first error; io.EOF
// ends the body cleanly.
func readBody(rd io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scanBody fills v from b and reports whether b is inside the subset the
// scanner accepts: one object of v's type with exact lowercase keys, each
// at most once; strings of printable ASCII without escapes; numbers in
// JSON's grammar that strconv parses as encoding/json does; no null; and
// only whitespace after the value. Unknown keys and params are outside
// it. Inside it, v holds what encoding/json would decode.
func scanBody[T hotRequest](b []byte, v *T) bool {
	s := scanner{b: b}
	ok := s.object(v)
	s.ws()
	return ok && s.i == len(s.b)
}

// scanner walks one body. Each method consumes one token, skipping the
// whitespace before it, and reports false on anything outside the
// accepted subset.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next token.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// raw returns the contents of a string of printable ASCII without
// escapes, which are the bytes encoding/json decodes it to.
func (s *scanner) raw() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// key reads an object key and the colon after it.
func (s *scanner) key() ([]byte, bool) {
	k, ok := s.raw()
	return k, ok && s.next(':')
}

// str reads a string value, copied out of the body.
func (s *scanner) str() (string, bool) {
	b, ok := s.raw()
	return string(b), ok
}

// number returns a number token: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
// The byte after it is checked by the caller's next delimiter.
func (s *scanner) number() ([]byte, bool) {
	s.ws()
	start := s.i
	if s.peek('-') {
		s.i++
	}
	switch {
	case s.peek('0'):
		s.i++
	case !s.digits():
		return nil, false
	}
	if s.peek('.') {
		s.i++
		if !s.digits() {
			return nil, false
		}
	}
	if s.peek('e') || s.peek('E') {
		s.i++
		if s.peek('+') || s.peek('-') {
			s.i++
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// peek reports whether c is the next byte.
func (s *scanner) peek(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// float reads a number as encoding/json decodes a float64; an
// out-of-range value is left to encoding/json's error.
func (s *scanner) float() (float64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(n), 64)
	return f, err == nil
}

// floatPtr reads a number into a fresh *float64, as encoding/json fills
// a nil pointer field.
func (s *scanner) floatPtr() (*float64, bool) {
	f, ok := s.float()
	if !ok {
		return nil, false
	}
	return &f, true
}

// uint reads a number as encoding/json decodes a uint64: fractions,
// exponents, signs and overflow are left to its errors.
func (s *scanner) uint() (uint64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	u, err := strconv.ParseUint(string(n), 10, 64)
	return u, err == nil
}

// boolean reads true or false.
func (s *scanner) boolean() (bool, bool) {
	s.ws()
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		return false, true
	}
	return false, false
}

// fields holds one bit per key of an object, so a repeated key (which
// encoding/json merges into the earlier value) leaves the scanner.
type fields uint8

// object reads one object into v, a pointer to one of the request
// types or to a PredictionBlock, member by member. The members dispatch
// through a type switch, not function values, so neither the scanner
// nor v escapes to the heap.
func (s *scanner) object(v any) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen fields
	for {
		k, ok := s.key()
		if !ok {
			return false
		}
		var bit fields
		switch p := v.(type) {
		case *DecideRequest:
			bit, ok = s.decideMember(p, k)
		case *PredictionBlock:
			bit, ok = s.predictionMember(p, k)
		case *BatchDecideRequest:
			bit, ok = s.batchDecideMember(p, k)
		case *ObserveRequest:
			bit, ok = s.observeMember(p, k)
		case *BatchObserveRequest:
			bit, ok = s.batchObserveMember(p, k)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// maxPresize caps the items array reserves up front, so a body of
// braces inside strings cannot make it reserve more than a few pages.
const maxPresize = 256

var openBrace = []byte{'{'}

// array reads an array of T objects. The '{' left in the body bound its
// length from above, so a typical batch allocates the slice once; []
// gives an empty non-nil slice, as encoding/json does.
func array[T DecideRequest | ObserveRequest](s *scanner) ([]T, bool) {
	if !s.next('[') {
		return nil, false
	}
	items := make([]T, 0, min(bytes.Count(s.b[s.i:], openBrace), maxPresize))
	if s.next(']') {
		return items, true
	}
	for {
		var zero T
		items = append(items, zero)
		if !s.object(&items[len(items)-1]) {
			return nil, false
		}
		if !s.next(',') {
			return items, s.next(']')
		}
	}
}

// decideMember decodes one DecideRequest member; params stay with
// encoding/json.
func (s *scanner) decideMember(req *DecideRequest, k []byte) (bit fields, ok bool) {
	switch string(k) {
	case "vehicle_id":
		req.VehicleID, ok = s.str()
		return 1 << 0, ok
	case "area":
		req.Area, ok = s.str()
		return 1 << 1, ok
	case "b":
		req.B, ok = s.float()
		return 1 << 2, ok
	case "seed":
		req.Seed, ok = s.uint()
		return 1 << 3, ok
	case "policy":
		req.Policy, ok = s.str()
		return 1 << 4, ok
	case "ledger":
		req.Ledger, ok = s.boolean()
		return 1 << 5, ok
	case "prediction":
		req.Prediction = new(PredictionBlock)
		return 1 << 6, s.object(req.Prediction)
	}
	return 0, false
}

// predictionMember decodes one PredictionBlock member.
func (s *scanner) predictionMember(p *PredictionBlock, k []byte) (bit fields, ok bool) {
	switch string(k) {
	case "predicted_stop_s":
		p.PredictedStopSec, ok = s.float()
		return 1 << 0, ok
	case "confidence":
		p.Confidence, ok = s.floatPtr()
		return 1 << 1, ok
	case "m1":
		p.M1, ok = s.floatPtr()
		return 1 << 2, ok
	case "m2":
		p.M2, ok = s.floatPtr()
		return 1 << 3, ok
	}
	return 0, false
}

// batchDecideMember decodes one BatchDecideRequest member.
func (s *scanner) batchDecideMember(req *BatchDecideRequest, k []byte) (bit fields, ok bool) {
	switch string(k) {
	case "seed":
		req.Seed, ok = s.uint()
		return 1 << 0, ok
	case "requests":
		req.Requests, ok = array[DecideRequest](s)
		return 1 << 1, ok
	}
	return 0, false
}

// observeMember decodes one ObserveRequest member.
func (s *scanner) observeMember(req *ObserveRequest, k []byte) (bit fields, ok bool) {
	switch string(k) {
	case "area":
		req.Area, ok = s.str()
		return 1 << 0, ok
	case "stop_sec":
		req.StopSec, ok = s.float()
		return 1 << 1, ok
	case "vehicle_id":
		req.VehicleID, ok = s.str()
		return 1 << 2, ok
	case "predicted_stop_s":
		req.PredictedStopSec, ok = s.floatPtr()
		return 1 << 3, ok
	case "decision_id":
		req.DecisionID, ok = s.str()
		return 1 << 4, ok
	}
	return 0, false
}

// batchObserveMember decodes one BatchObserveRequest member.
func (s *scanner) batchObserveMember(req *BatchObserveRequest, k []byte) (bit fields, ok bool) {
	if string(k) != "observations" {
		return 0, false
	}
	req.Observations, ok = array[ObserveRequest](s)
	return 1 << 0, ok
}
