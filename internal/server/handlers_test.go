package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// newTestServer builds a Server on the standard test areas and mounts
// it on an httptest listener.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Areas: testAreas()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON issues a request with a JSON body and decodes the reply into
// out (skipped when out is nil), returning the status and raw body.
func doJSON(t *testing.T, method, url, body string, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s %s reply %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

// errCode extracts the structured error code of a reply body.
func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("not a structured error: %q", raw)
	}
	return e.Error.Code
}

func TestDecideCachedPath(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var resp DecideResponse
	status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"v-1","area":"Chicago","seed":42}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !resp.Cached || resp.Area != "chicago" || resp.B != 28 || resp.Seed != 42 {
		t.Errorf("resp %+v", resp)
	}
	if resp.Choice != "DET" || resp.ThresholdSec != 28 {
		t.Errorf("choice %s threshold %v, want DET at B", resp.Choice, resp.ThresholdSec)
	}
	if resp.WorstCaseCR < 1 {
		t.Errorf("worst-case CR %v < 1", resp.WorstCaseCR)
	}
}

func TestDecideCustomBIsCacheMiss(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var resp DecideResponse
	status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"v-1","area":"chicago","b":100}`, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Cached || resp.B != 100 {
		t.Errorf("resp %+v, want uncached custom-B decision", resp)
	}
	snap := s.Recorder().Snapshot()
	if n, _ := snap.CounterValue("decide_cache_misses_total"); n != 1 {
		t.Errorf("cache misses %d, want 1", n)
	}
}

func TestDecideValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"missing vehicle", `{"area":"chicago"}`, 400, "bad_request"},
		{"missing area", `{"vehicle_id":"v"}`, 400, "bad_request"},
		{"unknown area", `{"vehicle_id":"v","area":"mars"}`, 404, "unknown_area"},
		{"negative b", `{"vehicle_id":"v","area":"chicago","b":-3}`, 400, "bad_request"},
		{"unknown field", `{"vehicle_id":"v","area":"chicago","bogus":1}`, 400, "bad_request"},
		{"trailing body", `{"vehicle_id":"v","area":"chicago"}{"x":1}`, 400, "bad_request"},
		{"not json", `hello`, 400, "bad_request"},
		{"infeasible custom b", `{"vehicle_id":"v","area":"chicago","b":0.001}`, 422, "invalid_stats"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", tc.body, nil)
			if status != tc.status {
				t.Fatalf("status %d body %s, want %d", status, raw, tc.status)
			}
			if got := errCode(t, raw); got != tc.code {
				t.Errorf("code %q, want %q", got, tc.code)
			}
		})
	}
}

func TestBatchOrderAndEmbeddedErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"seed":9,"requests":[
		{"vehicle_id":"a","area":"chicago"},
		{"vehicle_id":"b","area":"mars"},
		{"vehicle_id":"c","area":"atlanta"}]}`
	var resp BatchDecideResponse
	status, _ := doJSON(t, "POST", ts.URL+"/v1/decide/batch", body, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Seed != 9 || len(resp.Results) != 3 {
		t.Fatalf("resp %+v", resp)
	}
	if resp.Results[0].Decision == nil || resp.Results[0].Decision.VehicleID != "a" {
		t.Errorf("slot 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != "unknown_area" {
		t.Errorf("slot 1: %+v", resp.Results[1])
	}
	if resp.Results[2].Decision == nil || resp.Results[2].Decision.Area != "atlanta" {
		t.Errorf("slot 2: %+v", resp.Results[2])
	}
}

func TestBatchStructuralErrors(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatch = 2 })
	status, raw := doJSON(t, "POST", ts.URL+"/v1/decide/batch", `{"requests":[]}`, nil)
	if status != 400 || errCode(t, raw) != "bad_request" {
		t.Errorf("empty batch: %d %s", status, raw)
	}
	big := `{"requests":[` + strings.Repeat(`{"vehicle_id":"v","area":"chicago"},`, 2) +
		`{"vehicle_id":"v","area":"chicago"}]}`
	status, raw = doJSON(t, "POST", ts.URL+"/v1/decide/batch", big, nil)
	if status != http.StatusRequestEntityTooLarge || errCode(t, raw) != "too_large" {
		t.Errorf("oversized batch: %d %s", status, raw)
	}
}

func TestBatchMatchesSingles(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"seed":77,"requests":[
		{"vehicle_id":"x","area":"chicago"},
		{"vehicle_id":"y","area":"atlanta","b":40}]}`
	var batch BatchDecideResponse
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide/batch", body, &batch); status != 200 {
		t.Fatal("batch failed")
	}
	var single DecideResponse
	doJSON(t, "POST", ts.URL+"/v1/decide", `{"vehicle_id":"x","area":"chicago","seed":77}`, &single)
	if !reflect.DeepEqual(*batch.Results[0].Decision, single) {
		t.Errorf("batch slot != single decide:\n%+v\n%+v", *batch.Results[0].Decision, single)
	}
}

func TestStatsUpdateFlow(t *testing.T) {
	s, ts := newTestServer(t, nil)
	var info AreaInfo
	status, _ := doJSON(t, "PUT", ts.URL+"/v1/areas/chicago/stats", `{"mu":5,"q":0.5}`, &info)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if info.Choice != "TOI" || info.Version != 2 || info.Mu != 5 {
		t.Errorf("info %+v", info)
	}
	// Subsequent decisions use the swapped strategy.
	var resp DecideResponse
	doJSON(t, "POST", ts.URL+"/v1/decide", `{"vehicle_id":"v","area":"chicago"}`, &resp)
	if resp.Choice != "TOI" || resp.ThresholdSec != 0 {
		t.Errorf("post-update decide %+v", resp)
	}
	if n, _ := s.Recorder().Snapshot().CounterValue("stats_updates_total"); n != 1 {
		t.Errorf("stats_updates_total %d", n)
	}

	status, raw := doJSON(t, "PUT", ts.URL+"/v1/areas/mars/stats", `{"mu":1,"q":0.1}`, nil)
	if status != 404 || errCode(t, raw) != "unknown_area" {
		t.Errorf("unknown area: %d %s", status, raw)
	}
	status, raw = doJSON(t, "PUT", ts.URL+"/v1/areas/chicago/stats", `{"mu":100,"q":0.9}`, nil)
	if status != 422 || errCode(t, raw) != "invalid_stats" {
		t.Errorf("infeasible: %d %s", status, raw)
	}
	status, raw = doJSON(t, "PUT", ts.URL+"/v1/areas/chicago/stats", `{"mu":1,"q":0.1,"nope":2}`, nil)
	if status != 400 || errCode(t, raw) != "bad_request" {
		t.Errorf("unknown field: %d %s", status, raw)
	}
}

func TestAreasListing(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var resp AreasResponse
	status, _ := doJSON(t, "GET", ts.URL+"/v1/areas", "", &resp)
	if status != http.StatusOK || len(resp.Areas) != 2 {
		t.Fatalf("status %d areas %+v", status, resp)
	}
	if resp.Areas[0].ID != "atlanta" || resp.Areas[1].ID != "chicago" {
		t.Errorf("order %v, %v", resp.Areas[0].ID, resp.Areas[1].ID)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var hr HealthResponse
	status, _ := doJSON(t, "GET", ts.URL+"/healthz", "", &hr)
	if status != 200 || hr.Status != "ok" || hr.Areas != 2 {
		t.Errorf("healthz %d %+v", status, hr)
	}
	// Generate a little traffic, then scrape.
	doJSON(t, "POST", ts.URL+"/v1/decide", `{"vehicle_id":"v","area":"chicago"}`, nil)
	status, raw := doJSON(t, "GET", ts.URL+"/metrics", "", nil)
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	text := string(raw)
	for _, want := range []string{
		`http_requests_total{route="decide",code="200"} 1`,
		"decide_cache_hits_total 1",
		`# TYPE http_request_ms summary`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	status, raw = doJSON(t, "GET", ts.URL+"/metrics?format=json", "", nil)
	if status != 200 || !json.Valid(raw) {
		t.Errorf("json metrics: %d %.80s", status, raw)
	}
}

func TestUnknownRouteAndMethod(t *testing.T) {
	_, ts := newTestServer(t, nil)
	status, raw := doJSON(t, "GET", ts.URL+"/nope", "", nil)
	if status != 404 || errCode(t, raw) != "not_found" {
		t.Errorf("unknown route: %d %s", status, raw)
	}
	status, raw = doJSON(t, "GET", ts.URL+"/v1/decide", "", nil)
	if status != http.StatusMethodNotAllowed || errCode(t, raw) != "method_not_allowed" {
		t.Errorf("GET decide: %d %s, want structured 405", status, raw)
	}
	status, raw = doJSON(t, "POST", ts.URL+"/v1/areas/chicago/stats", `{"mu":1,"q":0.1}`, nil)
	if status != http.StatusMethodNotAllowed || errCode(t, raw) != "method_not_allowed" {
		t.Errorf("POST stats: %d %s, want structured 405", status, raw)
	}
}

func TestOverloadSheds429(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxInflight = 2 })
	// Fill the limiter as if two requests were mid-flight.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", `{"vehicle_id":"v","area":"chicago"}`, nil)
	if status != http.StatusTooManyRequests || errCode(t, raw) != "overloaded" {
		t.Fatalf("overloaded: %d %s", status, raw)
	}
	// healthz and metrics bypass the limiter so probes keep passing.
	if st, _ := doJSON(t, "GET", ts.URL+"/healthz", "", nil); st != 200 {
		t.Errorf("healthz under overload: %d", st)
	}
	if st, _ := doJSON(t, "GET", ts.URL+"/metrics", "", nil); st != 200 {
		t.Errorf("metrics under overload: %d", st)
	}
	// Draining one slot readmits traffic.
	<-s.inflight
	if st, _ := doJSON(t, "POST", ts.URL+"/v1/decide", `{"vehicle_id":"v","area":"chicago"}`, nil); st != 200 {
		t.Errorf("post-drain decide: %d", st)
	}
	<-s.inflight
	snap := s.Recorder().Snapshot()
	if n, _ := snap.CounterValue("http_overload_total"); n != 1 {
		t.Errorf("http_overload_total %d", n)
	}
	if n, _ := snap.CounterValue(`http_requests_total{route="decide",code="429"}`); n != 1 {
		t.Errorf("429 counter %d", n)
	}
}

func TestRequestCountsMatchTraffic(t *testing.T) {
	s, ts := newTestServer(t, nil)
	const n = 25
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"vehicle_id":"v-%d","area":"chicago"}`, i)
		if st, _ := doJSON(t, "POST", ts.URL+"/v1/decide", body, nil); st != 200 {
			t.Fatalf("decide %d: status %d", i, st)
		}
	}
	snap := s.Recorder().Snapshot()
	if got, _ := snap.CounterValue(`http_requests_total{route="decide",code="200"}`); got != n {
		t.Errorf("request counter %d, want %d", got, n)
	}
	if got, _ := snap.CounterValue("decide_cache_hits_total"); got != n {
		t.Errorf("cache hits %d, want %d", got, n)
	}
	h, ok := snap.HistogramValue(`http_request_ms{route="decide"}`)
	if !ok || h.Count != n {
		t.Errorf("latency histogram %+v, want count %d", h, n)
	}
}
