package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"idlereduce/internal/obs"
)

// syncBuffer is a concurrency-safe bytes.Buffer for log sinks whose
// writes happen on the JSONLWriter goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func decodeAuditLines(t *testing.T, data string) []AuditRecord {
	t.Helper()
	var recs []AuditRecord
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		if line == "" {
			continue
		}
		var rec AuditRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad audit line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestAuditRoundTripVerifies drives decide and batch traffic with the
// audit log on, then replays the log through VerifyAudit: every record
// must reproduce bit-for-bit, including custom-B and custom-seed
// decisions and a post-stats-update version.
func TestAuditRoundTripVerifies(t *testing.T) {
	audit := &syncBuffer{}
	s, ts := newTestServer(t, func(c *Config) { c.AuditLog = audit })

	for i := 0; i < 5; i++ {
		status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
			fmt.Sprintf(`{"vehicle_id":"v-%d","area":"chicago","seed":%d}`, i, i+1), nil)
		if status != http.StatusOK {
			t.Fatalf("decide %d: status %d", i, status)
		}
	}
	// Custom B (cache-miss path) and a batch.
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"v-b","area":"chicago","b":40}`, nil); status != http.StatusOK {
		t.Fatalf("custom-B decide: status %d", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide/batch",
		`{"seed":7,"requests":[{"vehicle_id":"b1","area":"chicago"},{"vehicle_id":"b2","area":"atlanta"},{"vehicle_id":"b3","area":"atlanta"}]}`, nil); status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	// Swap stats and decide again so a version-2 record is exercised.
	if status, _ := doJSON(t, "PUT", ts.URL+"/v1/areas/chicago/stats",
		`{"mu":10,"q":0.2}`, nil); status != http.StatusOK {
		t.Fatalf("stats update: status %d", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"v-after","area":"chicago"}`, nil); status != http.StatusOK {
		t.Fatalf("post-update decide: status %d", status)
	}

	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := decodeAuditLines(t, audit.String())
	if len(recs) != 10 {
		t.Fatalf("audit has %d records, want 10", len(recs))
	}
	for _, rec := range recs {
		if rec.RequestID == "" {
			t.Errorf("record without request id: %+v", rec)
		}
	}
	if last := recs[len(recs)-1]; last.StatsVersion != 2 {
		t.Errorf("post-update record version %d, want 2", last.StatsVersion)
	}

	rep, err := VerifyAudit(strings.NewReader(audit.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Matched != 10 || rep.Records != 10 {
		t.Errorf("verify report %+v, want 10/10 matched", rep)
	}
}

// TestVerifyAuditDetectsTampering flips recorded fields and expects
// the replay to flag each corruption mode.
func TestVerifyAuditDetectsTampering(t *testing.T) {
	audit := &syncBuffer{}
	s, ts := newTestServer(t, func(c *Config) { c.AuditLog = audit })
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"v-1","area":"chicago"}`, nil); status != http.StatusOK {
		t.Fatal("decide failed")
	}
	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := decodeAuditLines(t, audit.String())[0]

	otherChoice := "TOI"
	if rec.Choice == otherChoice {
		otherChoice = "DET"
	}
	tamper := map[string]func(*AuditRecord){
		"threshold": func(r *AuditRecord) { r.ThresholdSec += 0.5 },
		"choice":    func(r *AuditRecord) { r.Choice = otherChoice },
		"stream":    func(r *AuditRecord) { r.Stream++ },
		"stats":     func(r *AuditRecord) { r.Mu = -1 },
	}
	for name, mutate := range tamper {
		bad := rec
		mutate(&bad)
		line, _ := json.Marshal(bad)
		rep, err := VerifyAudit(bytes.NewReader(append(line, '\n')))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.OK() || rep.Mismatched != 1 {
			t.Errorf("%s tampering not detected: %+v", name, rep)
		}
	}
}

// TestVerifyAuditSkipsTruncatedTail writes valid records plus a
// truncated final line (the crash shape): verification must skip the
// tail without failing, while a corrupt line mid-file counts as
// corrupt.
func TestVerifyAuditSkipsTruncatedTail(t *testing.T) {
	audit := &syncBuffer{}
	s, ts := newTestServer(t, func(c *Config) { c.AuditLog = audit })
	for i := 0; i < 3; i++ {
		doJSON(t, "POST", ts.URL+"/v1/decide",
			fmt.Sprintf(`{"vehicle_id":"v-%d","area":"atlanta"}`, i), nil)
	}
	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	full := audit.String()
	lines := strings.Split(strings.TrimSpace(full), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 records, got %d", len(lines))
	}

	// Crash shape: the final line is cut mid-record.
	truncated := lines[0] + "\n" + lines[1] + "\n" + lines[2][:len(lines[2])/2]
	rep, err := VerifyAudit(strings.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || !rep.TruncatedTail || rep.Records != 2 || rep.Matched != 2 {
		t.Errorf("truncated tail report %+v, want 2 matched + skipped tail", rep)
	}

	// Corruption shape: a broken line with records after it is an
	// integrity failure, not a crash tail.
	corrupt := lines[0] + "\n" + lines[1][:10] + "\n" + lines[2] + "\n"
	rep, err = VerifyAudit(strings.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Corrupt != 1 || rep.TruncatedTail {
		t.Errorf("mid-file corruption report %+v, want corrupt=1", rep)
	}
}

// TestDrainFlushesAuditAndTrace is the shutdown-consistency check: a
// served decision must be on disk after a graceful SIGTERM drain, with
// no records lost in the bounded writers, and the trace log must carry
// the request's span.
func TestDrainFlushesAuditAndTrace(t *testing.T) {
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.jsonl")
	auditFile, err := obs.OpenRotatingFile(auditPath, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	trace := &syncBuffer{}
	s, err := New(Config{
		Addr:     "127.0.0.1:0",
		Areas:    testAreas(),
		AuditLog: auditFile,
		TraceLog: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx) }()
	waitHealthy(t, "http://"+addr)

	const n = 25
	for i := 0; i < n; i++ {
		status, _ := doJSON(t, "POST", "http://"+addr+"/v1/decide",
			fmt.Sprintf(`{"vehicle_id":"v-%d","area":"chicago"}`, i), nil)
		if status != http.StatusOK {
			t.Fatalf("decide %d: status %d", i, status)
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain")
	}
	if err := auditFile.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeAuditLines(t, string(data))
	if len(recs) != n {
		t.Fatalf("audit after drain has %d records, want %d (records lost at shutdown)", len(recs), n)
	}
	rep, err := VerifyAudit(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Matched != n {
		t.Errorf("post-drain verify %+v, want %d matched", rep, n)
	}
	if s.auditW.Dropped() != 0 {
		t.Errorf("audit writer dropped %d records", s.auditW.Dropped())
	}

	// The trace log must hold one http_request span per request with
	// the decision attributes attached.
	spans := 0
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if rec.Span == "http_request" && rec.Attrs["route"] == "decide" {
			spans++
			if rec.RequestID == "" || rec.Attrs["choice"] == nil || rec.Attrs["threshold_sec"] == nil {
				t.Errorf("span missing decision attrs: %+v", rec)
			}
		}
	}
	if spans != n {
		t.Errorf("trace has %d decide spans, want %d", spans, n)
	}
}

// TestAuditRequestIDMatchesHeader ties the three correlation surfaces
// together: response header, audit record, and trace span share the
// propagated request id.
func TestAuditRequestIDMatchesHeader(t *testing.T) {
	audit := &syncBuffer{}
	trace := &syncBuffer{}
	s, ts := newTestServer(t, func(c *Config) {
		c.AuditLog = audit
		c.TraceLog = trace
	})
	req, err := http.NewRequest("POST", ts.URL+"/v1/decide",
		strings.NewReader(`{"vehicle_id":"v-1","area":"chicago"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "client-chosen-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-chosen-7" {
		t.Errorf("response header id %q, want propagation", got)
	}
	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := decodeAuditLines(t, audit.String())
	if len(recs) != 1 || recs[0].RequestID != "client-chosen-7" {
		t.Errorf("audit request id = %+v, want client-chosen-7", recs)
	}
	if !strings.Contains(trace.String(), `"request_id":"client-chosen-7"`) {
		t.Errorf("trace missing propagated id: %s", trace.String())
	}
}

// TestRequestIDReachesEveryRecord: a decide batch with one ledger-opted
// item, then an observe batch that settles it beside a plain observe,
// run with the audit sink alone and with both sinks, under a client
// X-Request-Id and under a minted one. Every decide, settle and observe
// record carries its request's id, and with tracing on so do the
// batch's decide_item spans, in index order.
func TestRequestIDReachesEveryRecord(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, clientIDs := range []bool{true, false} {
			t.Run(fmt.Sprintf("trace=%v/client_ids=%v", traced, clientIDs), func(t *testing.T) {
				audit, trace := &syncBuffer{}, &syncBuffer{}
				s, ts := newTestServer(t, func(c *Config) {
					c.AuditLog = audit
					if traced {
						c.TraceLog = trace
					}
				})
				// post sends body under the client id when the case uses
				// one, and returns the id the reply carries.
				post := func(path, clientID, body string, out any) string {
					t.Helper()
					req, err := http.NewRequest("POST", ts.URL+path, strings.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					if clientIDs {
						req.Header.Set("X-Request-Id", clientID)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					if err := json.NewDecoder(resp.Body).Decode(out); err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: status %d, decode %v", path, resp.StatusCode, err)
					}
					id := resp.Header.Get("X-Request-Id")
					if clientIDs && id != clientID {
						t.Fatalf("%s: reply id %q, want %q", path, id, clientID)
					}
					return id
				}
				var decided BatchDecideResponse
				decideID := post("/v1/decide/batch", "client-decide", `{"seed":4,"requests":[
					{"vehicle_id":"a","area":"chicago"},
					{"vehicle_id":"b","area":"atlanta","ledger":true},
					{"vehicle_id":"c","area":"chicago","b":40}]}`, &decided)
				if len(decided.Results) != 3 || decided.Results[1].Decision == nil || decided.Results[1].Decision.DecisionID == "" {
					t.Fatalf("decide batch: %+v", decided)
				}
				var observed BatchObserveResponse
				observeID := post("/v1/observe/batch", "client-observe", fmt.Sprintf(`{"observations":[
					{"vehicle_id":"b","area":"atlanta","stop_sec":12,"decision_id":%q},
					{"vehicle_id":"d","area":"chicago","stop_sec":40}]}`, decided.Results[1].Decision.DecisionID), &observed)
				if observed.Accepted != 2 || observed.Settled != 1 {
					t.Fatalf("observe batch: %+v", observed)
				}
				if decideID == "" || decideID == observeID {
					t.Fatalf("request ids %q and %q, want two distinct ids", decideID, observeID)
				}
				if err := s.closeLogs(); err != nil {
					t.Fatal(err)
				}

				type idLine struct {
					Kind      string `json:"kind"`
					RequestID string `json:"request_id"`
					Span      string `json:"span"`
					Attrs     struct {
						Index *int `json:"index"`
					} `json:"attrs"`
				}
				lines := func(data string) []idLine {
					var out []idLine
					for _, l := range strings.Split(strings.TrimSpace(data), "\n") {
						var rec idLine
						if err := json.Unmarshal([]byte(l), &rec); err != nil {
							t.Fatalf("bad line %q: %v", l, err)
						}
						out = append(out, rec)
					}
					return out
				}
				want := []idLine{
					{RequestID: decideID}, {RequestID: decideID}, {RequestID: decideID},
					{Kind: settleKind, RequestID: observeID},
					{Kind: observeKind, RequestID: observeID},
					{Kind: observeKind, RequestID: observeID},
				}
				got := lines(audit.String())
				if len(got) != len(want) {
					t.Fatalf("audit has %d records, want %d:\n%s", len(got), len(want), audit.String())
				}
				for i := range want {
					if got[i].Kind != want[i].Kind || got[i].RequestID != want[i].RequestID {
						t.Errorf("audit record %d: kind %q id %q, want kind %q id %q",
							i, got[i].Kind, got[i].RequestID, want[i].Kind, want[i].RequestID)
					}
				}
				if !traced {
					return
				}
				var items []int
				for _, sp := range lines(trace.String()) {
					if sp.RequestID != decideID && sp.RequestID != observeID {
						t.Errorf("span %s carries id %q", sp.Span, sp.RequestID)
					}
					if sp.Span == "decide_item" {
						if sp.RequestID != decideID || sp.Attrs.Index == nil {
							t.Errorf("decide_item span: id %q index %v", sp.RequestID, sp.Attrs.Index)
							continue
						}
						items = append(items, *sp.Attrs.Index)
					}
				}
				if fmt.Sprint(items) != "[0 1 2]" {
					t.Errorf("decide_item indexes %v, want [0 1 2] in order", items)
				}
			})
		}
	}
}

// TestGeneratedRequestIDsUnique checks minted ids are present and
// distinct when the client sends none.
func TestGeneratedRequestIDsUnique(t *testing.T) {
	_, ts := newTestServer(t, nil)
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatal("no generated request id")
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// preEq3Log is an audit log written by the server before settle records
// carried the eq3 marker: decides on all four engines (custom B, params,
// predictions), plain observes, and settles, two of them ties (DET on a
// 28 s stop, TOI on a zero-length stop) charged under the strict y > x
// rule of the time.
const preEq3Log = "testdata/audit_pre_eq3.jsonl"

// TestVerifyAuditPreEq3Log: a log written before the eq. 3 tie fix still
// verifies, while an old tie cost under the new marker is a mismatch —
// the marker, not the cost, decides which rule a settle replays under.
func TestVerifyAuditPreEq3Log(t *testing.T) {
	data, err := os.ReadFile(preEq3Log)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]bool{}
	var customB, params, predictions, observes, ties int
	var detTie string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		rec, err := decodeAuditLine([]byte(line))
		if err != nil {
			t.Fatalf("fixture line %q: %v", line, err)
		}
		switch r := rec.(type) {
		case AuditRecord:
			engines[r.Policy] = true
			if r.B != 28 {
				customB++
			}
			if len(r.Params) > 0 {
				params++
			}
			if r.Prediction != nil {
				predictions++
			}
		case ObserveRecord:
			observes++
		case SettleRecord:
			if r.Eq3 {
				t.Fatalf("fixture settle %s carries the eq3 marker", r.DecisionID)
			}
			if r.StopSec == r.ThresholdSec {
				ties++
				if r.ThresholdSec == r.B {
					detTie = line
				}
			}
		}
	}
	if len(engines) != 4 || customB == 0 || params == 0 || predictions == 0 || observes == 0 || ties < 2 || detTie == "" {
		t.Fatalf("fixture coverage: engines %v, custom B %d, params %d, predictions %d, observes %d, ties %d",
			engines, customB, params, predictions, observes, ties)
	}

	rep, err := VerifyAudit(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatched != 0 || rep.Corrupt != 0 || rep.Matched != rep.Records {
		t.Fatalf("pre-eq3 log: %s", rep.String())
	}

	// The DET tie under the marker must carry the eq. 3 cost, 2B.
	marked := strings.TrimSuffix(detTie, "}") + `,"eq3":true}`
	for _, c := range []struct {
		line       string
		mismatched int
	}{
		{marked, 1},
		{strings.Replace(marked, `"online_cost":28,`, `"online_cost":56,`, 1), 0},
	} {
		rep, err := VerifyAudit(strings.NewReader(c.line + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Records != 1 || rep.Mismatched != c.mismatched {
			t.Errorf("marked tie %s: %s", c.line, rep.String())
		}
	}
}
