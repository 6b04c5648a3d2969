package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idlereduce/internal/policy"
)

// benchDecide drives POST /v1/decide through the full middleware stack
// without a network socket, so the pair below isolates the cost of the
// forensics layer (tracing + audit) on the hot path.
func benchDecide(b *testing.B, cfg Config) {
	cfg.Areas = testAreas()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const body = `{"vehicle_id":"bench-1","area":"chicago"}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/decide", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.StopTimer()
	if err := s.closeLogs(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDecideObsOff is the baseline: no trace log, no audit log.
// The forensics code must cost only two nil checks here.
func BenchmarkDecideObsOff(b *testing.B) {
	benchDecide(b, Config{})
}

// BenchmarkDecideObsOn measures the same path with tracing and audit
// enabled, writing to io.Discard so the sink itself is free and the
// measured delta is the instrumentation (span bookkeeping + record
// marshal + bounded enqueue).
func BenchmarkDecideObsOn(b *testing.B) {
	benchDecide(b, Config{TraceLog: io.Discard, AuditLog: io.Discard})
}

// BenchmarkMaxBatch times the slowest batch -max-batch admits, per
// registered engine: 4096 items, each with its own custom b, so every
// item prepares a fresh strategy, through the full handler with both
// sinks on. Its time is the bound docs/SERVER.md states for one batch.
func BenchmarkMaxBatch(b *testing.B) {
	for _, name := range policy.Names() {
		b.Run(name, func(b *testing.B) {
			s, err := New(Config{Areas: conformanceAreas(), TraceLog: io.Discard, AuditLog: io.Discard})
			if err != nil {
				b.Fatal(err)
			}
			areas := []string{"chicago", "atlanta", "nrandia"}
			var body strings.Builder
			body.WriteString(`{"seed":3,"requests":[`)
			for i := 0; i < s.cfg.MaxBatch; i++ {
				if i > 0 {
					body.WriteByte(',')
				}
				fmt.Fprintf(&body, `{"vehicle_id":"v-%d","area":%q,"b":%g,"policy":%q}`,
					i, areas[i%len(areas)], 30+float64(i)/100, name)
			}
			body.WriteString(`]}`)
			h := s.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/decide/batch", strings.NewReader(body.String())))
				if w.Code != http.StatusOK || strings.Contains(w.Body.String(), `"error"`) {
					b.Fatalf("status %d: %.300s", w.Code, w.Body.String())
				}
			}
			b.StopTimer()
			if err := s.closeLogs(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
