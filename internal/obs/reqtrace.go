package obs

import (
	"math"
	"slices"
	"strings"
	"sync"
	"time"
)

// Tracer emits one JSONL record per finished request span through a
// bounded, non-blocking JSONLWriter. It complements Recorder.StartSpan
// (which feeds aggregate histograms): a Tracer span is request-scoped
// forensics — every record carries the request id, so an operator can
// grep one request's path through middleware, handler and batch
// items. A nil *Tracer (and a nil *Span) is a no-op, so call sites
// need no guards when tracing is disabled.
type Tracer struct {
	w *JSONLWriter
}

// NewTracer wraps a JSONL sink. A nil writer yields a no-op tracer.
func NewTracer(w *JSONLWriter) *Tracer {
	if w == nil {
		return nil
	}
	return &Tracer{w: w}
}

// Dropped reports records lost to the bounded queue.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.w.Dropped()
}

// Flush blocks until every finished span has reached the sink.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	return t.w.Flush()
}

// Close flushes and stops the sink goroutine.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	return t.w.Close()
}

// SpanRecord is the JSONL wire form of one finished span, the shape
// readers decode trace lines into. Spans encode themselves to the same
// bytes json.Marshal gives their SpanRecord: attrs keys sorted, and an
// empty attrs block omitted.
type SpanRecord struct {
	// TSUnixMS is the span start time.
	TSUnixMS  int64          `json:"ts_unix_ms"`
	RequestID string         `json:"request_id"`
	Span      string         `json:"span"`
	DurMS     float64        `json:"dur_ms"`
	Attrs     map[string]any `json:"attrs,omitempty"`
}

// Span is one traced operation within a request. Attribute writes and
// End are mutex-guarded, so a span may be annotated from more than one
// goroutine.
type Span struct {
	t     *Tracer
	name  string
	reqID string
	start time.Time

	mu     sync.Mutex
	attrs  []spanAttr
	inline [10]spanAttr // backs attrs for the usual handful of keys
	durMS  float64
	ended  bool
}

// spanAttr is one typed attribute. num holds the int64 and bool
// values, the uint64 values, and the bits of the float64 values.
type spanAttr struct {
	key  string
	kind attrKind
	str  string
	num  uint64
}

type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrUint
	attrFloat
	attrBool
)

// Start opens a span; a nil tracer returns a nil span.
func (t *Tracer) Start(name, requestID string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, reqID: requestID, start: time.Now()}
}

// Child opens a sub-span inheriting the request id (e.g. one per batch
// item under the request's HTTP span).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, name: name, reqID: s.reqID, start: time.Now()}
}

// SetString records one string attribute. Like every setter it
// overwrites an earlier value of the same key and is ignored once the
// span has ended.
func (s *Span) SetString(key, v string) {
	s.set(spanAttr{key: key, kind: attrString, str: v})
}

// SetInt records one signed integer attribute.
func (s *Span) SetInt(key string, v int64) {
	s.set(spanAttr{key: key, kind: attrInt, num: uint64(v)})
}

// SetUint records one unsigned integer attribute.
func (s *Span) SetUint(key string, v uint64) {
	s.set(spanAttr{key: key, kind: attrUint, num: v})
}

// SetFloat records one float attribute. A NaN or infinite value makes
// the span's record unencodable, so it is dropped and counted.
func (s *Span) SetFloat(key string, v float64) {
	s.set(spanAttr{key: key, kind: attrFloat, num: math.Float64bits(v)})
}

// SetBool records one boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	a := spanAttr{key: key, kind: attrBool}
	if v {
		a.num = 1
	}
	s.set(a)
}

func (s *Span) set(a spanAttr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].key == a.key {
			s.attrs[i] = a
			return
		}
	}
	if s.attrs == nil {
		s.attrs = s.inline[:0]
	}
	s.attrs = append(s.attrs, a)
}

// End finishes the span and enqueues its record. Idempotent.
func (s *Span) End() {
	if s == nil || !s.finish() {
		return
	}
	// The sink encodes the record before Write returns, and a finished
	// span no longer changes, so the span itself is the record.
	s.t.w.Write((*finishedSpan)(s))
}

// finish marks the span ended, fixing its duration and sorting its
// attributes by key, the order json.Marshal gives a map. It reports
// false when the span had already ended.
func (s *Span) finish() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return false
	}
	s.ended = true
	s.durMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	slices.SortFunc(s.attrs, func(a, b spanAttr) int { return strings.Compare(a.key, b.key) })
	return true
}

// finishedSpan is an ended span as the sink encodes it.
type finishedSpan Span

// AppendJSON appends the bytes json.Marshal gives the span's
// SpanRecord.
func (f *finishedSpan) AppendJSON(dst []byte) ([]byte, error) {
	o := NewJSONObject(dst)
	o.Int("ts_unix_ms", f.start.UnixMilli())
	o.String("request_id", f.reqID)
	o.String("span", f.name)
	o.Float("dur_ms", f.durMS)
	if len(f.attrs) > 0 {
		o.Key("attrs")
		a := NewJSONObject(o.Bytes())
		for _, at := range f.attrs {
			switch at.kind {
			case attrString:
				a.String(at.key, at.str)
			case attrInt:
				a.Int(at.key, int64(at.num))
			case attrUint:
				a.Uint(at.key, at.num)
			case attrFloat:
				a.Float(at.key, math.Float64frombits(at.num))
			case attrBool:
				a.Bool(at.key, at.num != 0)
			}
		}
		o.Raw(a.End())
	}
	return o.End()
}
