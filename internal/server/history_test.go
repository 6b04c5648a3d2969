package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"idlereduce/internal/obs"
)

// TestHistoryEndpointZeroSamples: before the sampler has ticked, the
// endpoint must still answer a well-formed, empty window — dashboards
// poll immediately after boot.
func TestHistoryEndpointZeroSamples(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var h obs.History
	status, _ := doJSON(t, "GET", ts.URL+"/v1/history", "", &h)
	if status != http.StatusOK {
		t.Fatalf("history: status %d", status)
	}
	if h.Samples != 0 || len(h.TimesUnixMS) != 0 {
		t.Errorf("fresh server history has %d samples, want 0", h.Samples)
	}
	if h.Window <= 0 || h.IntervalMS <= 0 {
		t.Errorf("history window/interval not reported: %+v", h)
	}
	if len(h.Series) == 0 {
		t.Fatal("history has no series")
	}
	for _, name := range []string{"requests", "decisions", "inflight", "decide_p99_ms"} {
		if _, ok := h.Lookup(name); !ok {
			t.Errorf("history missing series %q", name)
		}
	}
}

// TestHistoryEndpointLive runs the full Serve lifecycle with a fast
// sampler, drives traffic, and expects the window to fill with nonzero
// request and decision rates.
func TestHistoryEndpointLive(t *testing.T) {
	s, err := New(Config{
		Addr:            "127.0.0.1:0",
		Areas:           testAreas(),
		HistoryInterval: 20 * time.Millisecond,
		HistoryWindow:   16,
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

	// Decide while polling: counter rates are derived from deltas
	// between samples, so the traffic must land inside the retained
	// window (a pre-window burst correctly shows a zero rate).
	var h obs.History
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		status, _ := doJSON(t, "POST", "http://"+addr+"/v1/decide",
			fmt.Sprintf(`{"vehicle_id":"v-%d","area":"chicago"}`, i), nil)
		if status != http.StatusOK {
			t.Fatalf("decide %d: status %d", i, status)
		}
		status, _ = doJSON(t, "GET", "http://"+addr+"/v1/history", "", &h)
		if status != http.StatusOK {
			t.Fatalf("history: status %d", status)
		}
		dec, ok := h.Lookup("decisions")
		if h.Samples >= 2 && ok && dec.RatePerSec > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never saw the decisions: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(h.TimesUnixMS) != h.Samples {
		t.Errorf("times length %d != samples %d", len(h.TimesUnixMS), h.Samples)
	}
	reqs, ok := h.Lookup("requests")
	if !ok || reqs.Kind != "rate" || reqs.RatePerSec <= 0 {
		t.Errorf("requests series not a live rate: %+v", reqs)
	}
	if h.Samples > h.Window {
		t.Errorf("samples %d exceed window %d", h.Samples, h.Window)
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
}

// TestBuildInfoEndpoint checks /v1/buildinfo and the extended /healthz
// report the binary's identity and lifecycle.
func TestBuildInfoEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)

	var bi BuildInfoResponse
	status, _ := doJSON(t, "GET", ts.URL+"/v1/buildinfo", "", &bi)
	if status != http.StatusOK {
		t.Fatalf("buildinfo: status %d", status)
	}
	if bi.Version == "" {
		t.Error("buildinfo version empty")
	}
	if bi.GoVersion != runtime.Version() {
		t.Errorf("go_version %q, want %q", bi.GoVersion, runtime.Version())
	}
	if bi.StartUnixMS <= 0 || bi.UptimeMS < 0 {
		t.Errorf("bad lifecycle fields: %+v", bi)
	}

	var hr HealthResponse
	if status, _ := doJSON(t, "GET", ts.URL+"/healthz", "", &hr); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if hr.Version != bi.Version || hr.GoVersion != bi.GoVersion {
		t.Errorf("healthz version %q/%q disagrees with buildinfo %q/%q",
			hr.Version, hr.GoVersion, bi.Version, bi.GoVersion)
	}
	if hr.StartUnixMS != bi.StartUnixMS {
		t.Errorf("healthz start %d != buildinfo start %d", hr.StartUnixMS, bi.StartUnixMS)
	}
}

// TestDashboardCountsAtScale backs the dashboard's counter series with
// exact counts on a 20 000-area server, where the per-area families
// dwarf the ones the sampler sums: a known mix of default, custom-B
// and second-engine decides, a batch, observes and one settle, sampled
// before and after.
func TestDashboardCountsAtScale(t *testing.T) {
	const nAreas = 20000
	areas := make([]AreaState, nAreas)
	for i := range areas {
		areas[i] = AreaState{ID: fmt.Sprintf("area-%05d", i), B: 28, Mu: 8, Q: 0.13}
	}
	s, err := New(Config{Areas: areas})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	want := map[string]int64{}
	post := func(path, body string) []byte {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("POST %s %s: status %d: %s", path, body, rr.Code, rr.Body)
		}
		want["requests"]++
		return rr.Body.Bytes()
	}
	area := func(i int) string { return fmt.Sprintf("area-%05d", i*7919%nAreas) }

	s.sampler.Sample()
	t0 := time.Now().UnixMilli()
	for i := 0; i < 300; i++ {
		post("/v1/decide", fmt.Sprintf(`{"vehicle_id":"v%d","area":%q}`, i, area(i)))
		want["decisions"]++
		want["cache_hits"]++
	}
	for i := 0; i < 60; i++ {
		post("/v1/decide", fmt.Sprintf(`{"vehicle_id":"v%d","area":%q,"b":%d}`, i, area(i), 30+i%20))
		want["decisions"]++
		want["cache_misses"]++
	}
	for i := 0; i < 40; i++ {
		post("/v1/decide", fmt.Sprintf(`{"vehicle_id":"v%d","area":%q,"policy":"multislope3"}`, i, area(i)))
		want["decisions"]++
		want["cache_hits"]++
	}
	var batch []string
	for i := 0; i < 16; i++ {
		batch = append(batch, fmt.Sprintf(`{"vehicle_id":"b%d","area":%q}`, i, area(1000+i)))
	}
	post("/v1/decide/batch", `{"requests":[`+strings.Join(batch, ",")+`]}`)
	want["decisions"] += 16
	want["cache_hits"] += 16
	for i := 0; i < 120; i++ {
		post("/v1/observe", fmt.Sprintf(`{"area":%q,"stop_sec":%d}`, area(i), 5+i%40))
		want["observations"]++
	}
	var dec DecideResponse
	if err := json.Unmarshal(post("/v1/decide", fmt.Sprintf(`{"vehicle_id":"settler","area":%q,"ledger":true}`, area(5))), &dec); err != nil || dec.DecisionID == "" {
		t.Fatalf("ledger decide: %v, decision id %q", err, dec.DecisionID)
	}
	want["decisions"]++
	want["cache_hits"]++
	post("/v1/observe", fmt.Sprintf(`{"area":%q,"stop_sec":12,"decision_id":%q}`, area(5), dec.DecisionID))
	want["observations"]++
	want["settles"]++

	// Rates need the two samples at distinct milliseconds.
	for time.Now().UnixMilli() <= t0 {
		time.Sleep(time.Millisecond)
	}
	s.sampler.Sample()
	hist := s.History()
	if hist.Samples != 2 {
		t.Fatalf("history holds %d samples, want 2", hist.Samples)
	}
	dt := float64(hist.TimesUnixMS[1]-hist.TimesUnixMS[0]) / 1000
	for _, name := range []string{"requests", "decisions", "cache_hits", "cache_misses", "observations", "settles"} {
		series, ok := hist.Lookup(name)
		if !ok {
			t.Errorf("history has no %q series", name)
			continue
		}
		if got := int64(math.Round(series.RatePerSec * dt)); got != want[name] {
			t.Errorf("%s counted %d over the window, want %d", name, got, want[name])
		}
	}
}

// TestFreshMetricsListsNoLazySeries: the series the serving paths
// resolve on first use must not exist before that use.
func TestFreshMetricsListsNoLazySeries(t *testing.T) {
	lazy := []string{"decide_total", "decide_area_", "http_requests_total", "cr_",
		"decide_cache_", "decide_prediction_total", "decide_threshold_sec", "ledger_issued_total",
		"batch_decisions_total", "observe_", "ledger_settled_total", "ledger_join_ms", "retune_",
		"http_decode_fallback_total", "http_encode_failed_total"}
	check := func(format, name string) {
		for _, prefix := range lazy {
			if strings.HasPrefix(name, prefix) {
				t.Errorf("fresh /metrics%s lists %s", format, name)
			}
		}
	}
	for _, format := range []string{"", "?format=json"} {
		s, err := New(Config{Areas: testAreas()})
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics"+format, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("/metrics%s: status %d", format, rr.Code)
		}
		if format == "" {
			for _, line := range strings.Split(rr.Body.String(), "\n") {
				check(format, strings.TrimPrefix(line, "# TYPE "))
			}
			continue
		}
		snap, err := obs.ReadSnapshot(rr.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range snap.Counters {
			check(format, c.Name)
		}
		for _, g := range snap.Gauges {
			check(format, g.Name)
		}
		for _, h := range snap.Histograms {
			check(format, h.Name)
		}
	}
}
