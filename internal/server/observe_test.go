package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"idlereduce/internal/obs"
	"idlereduce/internal/skirental"
)

// retuneTestConfig is a drift detector tuned for short test streams:
// warm after 10 stops, CUSUM baseline over the first 10.
func retuneTestConfig() RetuneConfig {
	return RetuneConfig{MinObservations: 10, DriftWarmup: 10}
}

// driveSteady streams n unremarkable short stops into an area and
// fails on any alarm.
func driveSteady(t *testing.T, url, area string, n int) ObserveResponse {
	t.Helper()
	var last ObserveResponse
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"area":%q,"stop_sec":%d,"vehicle_id":"obs-%d"}`, area, 4+i%5, i)
		status, raw := doJSON(t, "POST", url+"/v1/observe", body, &last)
		if status != http.StatusOK {
			t.Fatalf("observe %d: status %d: %s", i, status, raw)
		}
		if last.Alarm {
			t.Fatalf("steady stop %d raised an alarm: %+v", i, last)
		}
	}
	return last
}

// driveDrift streams long stops until an alarm fires (or gives up).
func driveDrift(t *testing.T, url, area string, max int) ObserveResponse {
	t.Helper()
	for i := 0; i < max; i++ {
		var resp ObserveResponse
		body := fmt.Sprintf(`{"area":%q,"stop_sec":%d}`, area, 24+i%4)
		status, raw := doJSON(t, "POST", url+"/v1/observe", body, &resp)
		if status != http.StatusOK {
			t.Fatalf("drift observe %d: status %d: %s", i, status, raw)
		}
		if resp.Alarm {
			return resp
		}
	}
	t.Fatalf("no alarm after %d drifted stops", max)
	return ObserveResponse{}
}

// areaInfo fetches one area's row from the GET /v1/areas listing.
func areaInfo(t *testing.T, url, id string) AreaInfo {
	t.Helper()
	var resp AreasResponse
	if status, raw := doJSON(t, "GET", url+"/v1/areas", "", &resp); status != http.StatusOK {
		t.Fatalf("areas listing: status %d: %s", status, raw)
	}
	for _, a := range resp.Areas {
		if a.ID == id {
			return a
		}
	}
	t.Fatalf("area %q not in listing", id)
	return AreaInfo{}
}

func TestObserveValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		body   string
		status int
		code   string
	}{
		{`{"stop_sec":5}`, http.StatusBadRequest, "bad_request"},
		{`{"area":"nowhere","stop_sec":5}`, http.StatusNotFound, "unknown_area"},
		{`{"area":"chicago","stop_sec":-1}`, http.StatusBadRequest, "bad_request"},
		{`{"area":"chicago","stop_sec":"soon"}`, http.StatusBadRequest, "bad_request"},
		{`{"area":"chicago","stop_sec":5,"bogus":1}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		status, raw := doJSON(t, "POST", ts.URL+"/v1/observe", tc.body, nil)
		if status != tc.status || errCode(t, raw) != tc.code {
			t.Errorf("observe %s: got %d %s, want %d %s", tc.body, status, errCode(t, raw), tc.status, tc.code)
		}
	}
}

func TestObserveStreamsPerAreaStats(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var resp ObserveResponse
	for i := 1; i <= 3; i++ {
		status, raw := doJSON(t, "POST", ts.URL+"/v1/observe",
			`{"area":"chicago","stop_sec":6}`, &resp)
		if status != http.StatusOK {
			t.Fatalf("observe: status %d: %s", status, raw)
		}
		if resp.Seq != int64(i) || resp.Area != "chicago" {
			t.Fatalf("observe %d: %+v", i, resp)
		}
		if resp.Warm {
			t.Fatalf("warm after %d stops with default MinObservations", i)
		}
		if resp.StatsVersion != 1 {
			t.Fatalf("stats version %d before any retune", resp.StatsVersion)
		}
	}
	if resp.Mu != 6 || resp.Q != 0 {
		t.Fatalf("estimates after three 6s stops: mu %v q %v", resp.Mu, resp.Q)
	}
	// Streams are per-area: atlanta starts its own sequence.
	status, _ := doJSON(t, "POST", ts.URL+"/v1/observe", `{"area":"atlanta","stop_sec":6}`, &resp)
	if status != http.StatusOK || resp.Seq != 1 {
		t.Fatalf("atlanta stream: status %d, seq %d", status, resp.Seq)
	}
}

// TestObserveRetuneRederivesStrategy is the tentpole's closed loop: a
// warm CUSUM alarm must atomically re-derive the area's strategies
// from the streamed estimates, visible as a version bump and new
// statistics in both the area listing and subsequent decides.
func TestObserveRetuneRederivesStrategy(t *testing.T) {
	audit := &syncBuffer{}
	s, ts := newTestServer(t, func(c *Config) {
		c.Retune = retuneTestConfig()
		c.AuditLog = audit
	})

	before := areaInfo(t, ts.URL, "chicago")
	driveSteady(t, ts.URL, "chicago", 20)
	alarm := driveDrift(t, ts.URL, "chicago", 60)
	if !alarm.Retuned {
		t.Fatalf("warm alarm did not retune: %+v", alarm)
	}
	if alarm.StatsVersion != before.Version+1 {
		t.Fatalf("retune stats version %d, want %d", alarm.StatsVersion, before.Version+1)
	}

	after := areaInfo(t, ts.URL, "chicago")
	if after.Version != alarm.StatsVersion {
		t.Errorf("listing version %d, observe reported %d", after.Version, alarm.StatsVersion)
	}
	if after.Mu != alarm.Mu || after.Q != alarm.Q {
		t.Errorf("listing stats (%v, %v) != streamed estimates (%v, %v)",
			after.Mu, after.Q, alarm.Mu, alarm.Q)
	}
	if after.B != before.B {
		t.Errorf("retune moved B from %v to %v; it must only swap stats", before.B, after.B)
	}
	if after.Mu == before.Mu && after.Q == before.Q {
		t.Error("retune did not change the serving statistics")
	}
	// Decides after the retune serve the re-derived strategy and stamp
	// the bumped version into the audit log.
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"post-retune","area":"chicago"}`, nil); status != http.StatusOK {
		t.Fatal("post-retune decide failed")
	}
	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(audit.String()), "\n")
	var decRec AuditRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &decRec); err != nil {
		t.Fatal(err)
	}
	if decRec.Choice == "" || decRec.StatsVersion != after.Version {
		t.Errorf("post-retune decide audit record %+v, want stats version %d", decRec, after.Version)
	}
	rep, err := VerifyAudit(strings.NewReader(audit.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("audit replay across the retune failed: %+v", rep)
	}
}

func TestObserveRetuneDisabled(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		cfg := retuneTestConfig()
		cfg.Disabled = true
		c.Retune = cfg
	})
	driveSteady(t, ts.URL, "chicago", 20)
	alarm := driveDrift(t, ts.URL, "chicago", 60)
	if alarm.Retuned {
		t.Fatalf("shadow mode retuned: %+v", alarm)
	}
	after := areaInfo(t, ts.URL, "chicago")
	if after.Version != 1 {
		t.Errorf("shadow mode bumped version to %d", after.Version)
	}
}

// TestObserveStreamResetsOnBChange pins the invariant that moments are
// only meaningful at one break-even interval: when an area's B moves,
// the observation stream restarts.
func TestObserveStreamResetsOnBChange(t *testing.T) {
	s, ts := newTestServer(t, nil)
	driveSteady(t, ts.URL, "chicago", 5)
	v, _ := s.cache.view("chicago")
	if _, err := s.cache.Update("chicago", 35,
		skirental.Stats{MuBMinus: v.rec.state.Mu, QBPlus: v.rec.state.Q}); err != nil {
		t.Fatal(err)
	}
	var resp ObserveResponse
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/observe",
		`{"area":"chicago","stop_sec":6}`, &resp); status != http.StatusOK {
		t.Fatal("observe after B change failed")
	}
	if resp.Seq != 1 {
		t.Errorf("stream continued at seq %d across a B change", resp.Seq)
	}
}

func TestObserveBatchSequentialAndRolledUp(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var items []string
	for i := 0; i < 6; i++ {
		items = append(items, fmt.Sprintf(`{"area":"chicago","stop_sec":%d}`, 5+i))
	}
	items = append(items, `{"area":"nowhere","stop_sec":5}`, `{"area":"atlanta","stop_sec":7}`)
	body := fmt.Sprintf(`{"observations":[%s]}`, strings.Join(items, ","))

	var resp BatchObserveResponse
	status, raw := doJSON(t, "POST", ts.URL+"/v1/observe/batch", body, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, raw)
	}
	if len(resp.Results) != 8 || resp.Accepted != 7 {
		t.Fatalf("batch reply %+v", resp)
	}
	// Items apply strictly in input order: chicago slots carry seq 1..6.
	for i := 0; i < 6; i++ {
		r := resp.Results[i].Result
		if r == nil || r.Seq != int64(i+1) {
			t.Fatalf("slot %d: %+v, want chicago seq %d", i, resp.Results[i], i+1)
		}
	}
	if resp.Results[6].Error == nil || resp.Results[6].Error.Code != "unknown_area" {
		t.Fatalf("unknown-area slot: %+v", resp.Results[6])
	}
	if r := resp.Results[7].Result; r == nil || r.Area != "atlanta" || r.Seq != 1 {
		t.Fatalf("atlanta slot: %+v", resp.Results[7])
	}
	// Replaying the identical batch on a fresh server gives the
	// identical reply bytes (observe is deterministic like decide).
	_, ts2 := newTestServer(t, nil)
	status2, raw2 := doJSON(t, "POST", ts2.URL+"/v1/observe/batch", body, nil)
	if status2 != status || string(raw2) != string(raw) {
		t.Fatalf("batch reply not reproducible:\n%s\n%s", raw, raw2)
	}
}

// TestObserveBatchSpanRollsUp: a traced observe batch across several
// areas carries roll-ups on its request span, not the attributes of
// whichever item ran last, and emits no per-item spans; a single
// observe keeps its per-item attributes.
func TestObserveBatchSpanRollsUp(t *testing.T) {
	trace := &syncBuffer{}
	s, ts := newTestServer(t, func(c *Config) { c.TraceLog = trace })
	var dec DecideResponse
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", `{"vehicle_id":"v-1","area":"atlanta","ledger":true}`, &dec); status != http.StatusOK {
		t.Fatalf("decide: status %d: %s", status, raw)
	}
	body := fmt.Sprintf(`{"observations":[{"area":"chicago","stop_sec":5},{"area":"atlanta","stop_sec":40,"decision_id":%q},`+
		`{"area":"nowhere","stop_sec":5},{"area":"chicago","stop_sec":6}]}`, dec.DecisionID)
	var batch BatchObserveResponse
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/observe/batch", body, &batch); status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, raw)
	}
	if batch.Accepted != 3 || batch.Settled != 1 {
		t.Fatalf("batch reply %+v, want 3 accepted, 1 settled", batch)
	}
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/observe", `{"area":"atlanta","stop_sec":7}`, nil); status != http.StatusOK {
		t.Fatalf("observe: status %d: %s", status, raw)
	}
	if err := s.tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	byRoute := map[string][]obs.SpanRecord{}
	perRequest := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		perRequest[rec.RequestID]++
		if route, _ := rec.Attrs["route"].(string); rec.Span == "http_request" {
			byRoute[route] = append(byRoute[route], rec)
		}
	}
	if len(byRoute["observe_batch"]) != 1 {
		t.Fatalf("observe_batch spans: %+v", byRoute["observe_batch"])
	}
	b := byRoute["observe_batch"][0]
	if perRequest[b.RequestID] != 1 {
		t.Errorf("batch request wrote %d span records, want 1 (no per-item spans)", perRequest[b.RequestID])
	}
	want := map[string]float64{"items": 4, "accepted": 3, "alarms": float64(batch.Alarms),
		"retunes": float64(batch.Retunes), "settled": 1, "code": 200}
	for k, v := range want {
		if b.Attrs[k] != v {
			t.Errorf("batch span %s = %v, want %v", k, b.Attrs[k], v)
		}
	}
	for _, k := range []string{"area", "seq", "stop_sec", "decision_id", "join_ms", "alarm", "retuned", "stats_version"} {
		if v, ok := b.Attrs[k]; ok {
			t.Errorf("batch span carries per-item attribute %s = %v", k, v)
		}
	}
	if len(byRoute["observe"]) != 1 {
		t.Fatalf("observe spans: %+v", byRoute["observe"])
	}
	single := byRoute["observe"][0].Attrs
	if single["area"] != "atlanta" || single["seq"] != float64(2) || single["stop_sec"] != float64(7) {
		t.Errorf("single observe span attrs %v, want area atlanta, seq 2, stop_sec 7", single)
	}
}

func TestObserveBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBatch = 2 })
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/observe/batch",
		`{"observations":[]}`, nil); status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", status, raw)
	}
	big := `{"observations":[{"area":"chicago","stop_sec":1},{"area":"chicago","stop_sec":2},{"area":"chicago","stop_sec":3}]}`
	status, raw := doJSON(t, "POST", ts.URL+"/v1/observe/batch", big, nil)
	if status != http.StatusRequestEntityTooLarge || errCode(t, raw) != "too_large" {
		t.Fatalf("oversize batch: status %d: %s", status, raw)
	}
}

// TestObserveConcurrentWithDecides exercises the lock split under the
// race detector: retunes on one area must not corrupt or deadlock
// decide traffic on others.
func TestObserveConcurrentWithDecides(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Retune = retuneTestConfig() })
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			stop := 5
			if i > 40 {
				stop = 26 // drifted regime: alarms and retunes fire mid-run
			}
			status, raw := doJSON(t, "POST", ts.URL+"/v1/observe",
				fmt.Sprintf(`{"area":"chicago","stop_sec":%d}`, stop), nil)
			if status != http.StatusOK {
				errs <- fmt.Sprintf("observe %d: %d %s", i, status, raw)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var want json.RawMessage
		for i := 0; i < 120; i++ {
			status, raw := doJSON(t, "POST", ts.URL+"/v1/decide",
				`{"vehicle_id":"c-1","area":"atlanta","seed":3}`, nil)
			if status != http.StatusOK {
				errs <- fmt.Sprintf("decide %d: %d %s", i, status, raw)
				return
			}
			// Atlanta is untouched by the chicago retunes, so its reply
			// bytes must stay frozen throughout.
			if want == nil {
				want = raw
			} else if string(raw) != string(want) {
				errs <- fmt.Sprintf("decide %d changed under sibling retunes:\n%s\n%s", i, raw, want)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
