package server

import (
	"encoding/json"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"idlereduce/internal/obs"
)

// statusWriter captures the status code written by a handler so the
// middleware can label its metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// requestIDHeader is the correlation header: propagated when the
// client sends one, minted otherwise, and always echoed on the reply.
const requestIDHeader = "X-Request-Id"

// ledgerHeader opts a decide request into the competitive-ratio ledger
// without touching the body (any non-empty value). Equivalent to the
// request's ledger field; on a batch it opts in every item.
const ledgerHeader = "X-Ledger"

// call is what the middleware hands a handler besides the request: the
// request id its audit records quote, and the span it annotates (nil
// when tracing is off; every Span method is nil-safe).
type call struct {
	id   string
	span *obs.Span
}

// handler is a route handler under instrument.
type handler func(w http.ResponseWriter, r *http.Request, c call)

// instrument wraps a handler with the serving middleware stack:
//
//   - bounded in-flight limiter (when limited): a full server answers
//     429 immediately instead of queueing without bound;
//   - in-flight gauge http_inflight_requests;
//   - request-id assignment/propagation (X-Request-Id, echoed on the
//     reply and handed to the handler);
//   - a trace span per request when Config.TraceLog is set, recording
//     route, status and latency plus whatever the handler annotates;
//   - request counter http_requests_total{route,code} and latency
//     histogram http_request_ms{route};
//   - panic capture: a panicking handler becomes a 500 with a
//     structured body and an http_panics_total count, never a dropped
//     connection for sibling requests.
//
// healthz and metrics pass limited=false so probes and scrapes keep
// working while the server sheds decision load.
func (s *Server) instrument(route string, limited bool, h handler) http.Handler {
	// The route's series are resolved on first use, then reused.
	reg := s.rec.Registry()
	var latency obs.Lazy[obs.Histogram]
	requests := obs.NewSeries(func(code int) *obs.Counter {
		return reg.Counter(obs.L("http_requests_total", "route", route, "code", strconv.Itoa(code)))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get(requestIDHeader)
		if reqID == "" {
			reqID = s.newRequestID()
		}
		w.Header().Set(requestIDHeader, reqID)
		if limited {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				requests.Get(http.StatusTooManyRequests).Inc()
				s.rec.Add("http_overload_total", 1)
				writeError(w, http.StatusTooManyRequests, "overloaded",
					"server at max in-flight requests; retry with backoff")
				return
			}
		}
		s.series.inflight.get().Set(float64(len(s.inflight)))

		span := s.tracer.Start("http_request", reqID)
		span.SetString("route", route)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.rec.Add("http_panics_total", 1)
				s.rec.Event("server_panic")
				debug.PrintStack()
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			code := sw.status
			if code == 0 {
				code = http.StatusOK
			}
			requests.Get(code).Inc()
			latency.Get(func() *obs.Histogram {
				return reg.Histogram(obs.L("http_request_ms", "route", route))
			}).Observe(float64(time.Since(t0)) / float64(time.Millisecond))
			span.SetInt("code", int64(code))
			span.End()
		}()
		h(sw, r, call{id: reqID, span: span})
	})
}

// bodyPool recycles request and reply buffers; maxPooledBody keeps one
// large body from pinning its buffer in the pool.
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBody = 64 << 10

// putBody returns b, the buffer taken as bp, to bodyPool.
func putBody(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
}

// writeJSON writes v with the given status as a JSON body: json.Marshal's
// bytes and a newline, as json.Encoder writes them. The body is encoded
// before the header is sent, so a value that cannot be encoded (a
// non-finite number) answers 500 internal, counted in
// http_encode_failed_total, never a 2xx without a body.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if err := sendJSON(w, status, v); err != nil {
		s.series.encodeFailed.get().Inc()
		writeError(w, http.StatusInternalServerError, "internal", "encode reply: "+err.Error())
	}
}

// sendJSON encodes v, then writes the header and the body. A reply that
// encodes itself (obs.JSONAppender) is appended into a pooled buffer
// and sent in one Write; other values go through json.Encoder, which
// also writes only once the whole value has encoded. An encode error is
// returned with nothing written.
func sendJSON(w http.ResponseWriter, status int, v any) error {
	a, ok := v.(obs.JSONAppender)
	if !ok {
		hw := &headerOnWrite{w: w, status: status}
		err := json.NewEncoder(hw).Encode(v)
		if hw.sent {
			return nil
		}
		return err
	}
	bp := bodyPool.Get().(*[]byte)
	b, err := a.AppendJSON((*bp)[:0])
	if err == nil {
		b = append(b, '\n')
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(b)
	}
	putBody(bp, b)
	return err
}

// headerOnWrite sends the JSON content type and status with the first
// body write.
type headerOnWrite struct {
	w      http.ResponseWriter
	status int
	sent   bool
}

func (h *headerOnWrite) Write(b []byte) (int, error) {
	if !h.sent {
		h.sent = true
		h.w.Header().Set("Content-Type", "application/json")
		h.w.WriteHeader(h.status)
	}
	return h.w.Write(b)
}

// writeError writes the structured error envelope, which always
// encodes.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	_ = sendJSON(w, status, ErrorResponse{Error: APIError{Code: code, Message: msg, Status: status}})
}
