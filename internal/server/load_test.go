package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoadHarnessReportMatchesMetrics runs the loadtest harness against
// a live server and cross-checks its report against the server's own
// /metrics: request counts, cache hits and latency histogram counts
// must all equal the load driven.
func TestLoadHarnessReportMatchesMetrics(t *testing.T) {
	s, ts := newTestServer(t, nil)
	const clients, requests, batch = 8, 10, 5
	report, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:  ts.URL,
		Clients:  clients,
		Requests: requests,
		Batch:    batch,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantReq := int64(clients * requests)
	wantDec := wantReq * batch
	if report.Requests != wantReq || report.Decisions != wantDec {
		t.Errorf("report %d req / %d decisions, want %d / %d",
			report.Requests, report.Decisions, wantReq, wantDec)
	}
	if report.Errors != 0 || report.Overloaded != 0 {
		t.Errorf("report errors=%d overloaded=%d", report.Errors, report.Overloaded)
	}
	if report.RequestQPS <= 0 || report.P99 <= 0 || report.P50 > report.Max {
		t.Errorf("report stats %+v", report)
	}
	if report.String() == "" {
		t.Error("empty text report")
	}

	snap := s.Recorder().Snapshot()
	if got, _ := snap.CounterValue(`http_requests_total{route="batch",code="200"}`); got != wantReq {
		t.Errorf("server saw %d batch requests, want %d", got, wantReq)
	}
	if got, _ := snap.CounterValue("decide_cache_hits_total"); got != wantDec {
		t.Errorf("server cache hits %d, want %d (every decision uses the area default B)", got, wantDec)
	}
	if got, _ := snap.CounterValue("batch_decisions_total"); got != wantDec {
		t.Errorf("batch_decisions_total %d, want %d", got, wantDec)
	}
	h, ok := snap.HistogramValue(`http_request_ms{route="batch"}`)
	if !ok || h.Count != uint64(wantReq) {
		t.Errorf("server latency histogram count %d, want %d", h.Count, wantReq)
	}
}

// TestLoadDiscoversAreas exercises the harness's GET /v1/areas
// discovery path and bad-target errors.
func TestLoadDiscoversAreas(t *testing.T) {
	_, ts := newTestServer(t, nil)
	report, err := RunLoad(context.Background(), LoadOptions{
		BaseURL: ts.URL, Clients: 2, Requests: 2, Batch: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Decisions != 8 || report.Errors != 0 {
		t.Errorf("report %+v", report)
	}
	if _, err := RunLoad(context.Background(), LoadOptions{}); err == nil {
		t.Error("missing base URL accepted")
	}
	if _, err := RunLoad(context.Background(), LoadOptions{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Error("unreachable target accepted")
	}
}

// TestThousandConcurrentInflightBatches is the scale acceptance test:
// 1000 batch decisions simultaneously in flight, each held inside the
// decide handler until all 1000 have arrived, then released together.
// Run under -race this exercises the full concurrent path: limiter,
// cache reads, batch decides, metrics writes.
func TestThousandConcurrentInflightBatches(t *testing.T) {
	const n = 1000
	var entered atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	var barrierTimeout atomic.Bool
	hook := func() {
		if entered.Add(1) == n {
			releaseOnce.Do(func() { close(release) })
		}
		select {
		case <-release:
		case <-time.After(60 * time.Second):
			barrierTimeout.Store(true)
			releaseOnce.Do(func() { close(release) })
		}
	}
	s, err := New(Config{
		Areas:        testAreas(),
		MaxInflight:  n,
		ReadTimeout:  90 * time.Second,
		WriteTimeout: 90 * time.Second,
		testHook:     hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 90 * time.Second}

	var wg sync.WaitGroup
	statuses := make([]int, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"seed":5,"requests":[{"vehicle_id":"v-%d","area":"chicago"}]}`, i)
			resp, err := client.Post(ts.URL+"/v1/decide/batch", "application/json",
				bytes.NewReader([]byte(body)))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			var batch BatchDecideResponse
			if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
				errs[i] = err
				return
			}
			if len(batch.Results) != 1 || batch.Results[0].Decision == nil {
				errs[i] = fmt.Errorf("bad batch reply %+v", batch)
			}
		}(i)
	}
	wg.Wait()
	if barrierTimeout.Load() {
		t.Fatalf("barrier timed out with %d/%d in flight", entered.Load(), n)
	}
	for i := range statuses {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
	}
	if got := entered.Load(); got != n {
		t.Errorf("handler entries %d, want %d", got, n)
	}

	snap := s.Recorder().Snapshot()
	if got, _ := snap.CounterValue(`http_requests_total{route="batch",code="200"}`); got != n {
		t.Errorf("batch 200s %d, want %d", got, n)
	}
	if got, _ := snap.CounterValue("decide_cache_hits_total"); got != n {
		t.Errorf("cache hits %d, want %d", got, n)
	}
	if got, _ := snap.CounterValue("http_overload_total"); got != 0 {
		t.Errorf("unexpected load shedding: %d", got)
	}
	h, _ := snap.HistogramValue(`http_request_ms{route="batch"}`)
	if h.Count != n {
		t.Errorf("latency observations %d, want %d", h.Count, n)
	}
}
