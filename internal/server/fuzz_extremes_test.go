package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// extremeValues are finite numbers at the edges of float64 (±1e308, the
// largest finite value, the smallest subnormal 5e-324) and ordinary
// values between them, for FuzzServeExtremes to send as break-even
// intervals, statistics, stops and forecasts.
var extremeValues = []float64{
	0, 5e-324, -5e-324, 1e-300, 0.5, 1, 28, 47, 1e6, 1e154, 1e300,
	1e307, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
}

// num renders v as a JSON number.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// serveProbe sends one request through h and fails the test on a 5xx,
// or on a 2xx whose body is empty or not JSON. It returns the status and
// the body.
func serveProbe(t *testing.T, h http.Handler, method, path, body string) (int, []byte) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rr.Code >= 500 {
		t.Fatalf("%s %s %s: status %d: %s", method, path, body, rr.Code, rr.Body)
	}
	if rr.Code < 300 && (rr.Body.Len() == 0 || !json.Valid(rr.Body.Bytes())) {
		t.Fatalf("%s %s %s: status %d with body %q", method, path, body, rr.Code, rr.Body)
	}
	return rr.Code, rr.Body.Bytes()
}

// FuzzServeExtremes drives stats updates, single and batch decides,
// observes and ledger settles through Handler() with extreme finite
// values, including the feasibility edges mu = B(1-q), q = 0 and q = 1.
// It fails on any 5xx, on a 2xx whose body is empty or not JSON, and on
// an area that stops answering default decides after a request the
// server accepted. After every step, accepted or not, the ledger
// table, the metrics history (sampled first), the JSON metrics and the
// state-plane snapshot must answer 200 with a JSON body. Each four
// bytes of the input are one request: the operation, and three picks
// of values and variants.
func FuzzServeExtremes(f *testing.F) {
	f.Add([]byte{0, 12, 1, 0, 1, 12, 0, 0, 2, 12, 5, 1})        // the b = 1e308 probes
	f.Add([]byte{0, 10, 4, 5, 3, 14, 12, 1, 5, 10, 14, 1})      // B = 1e300 at mu = B(1-q), stops at the top
	f.Add([]byte{0, 6, 0, 4, 1, 15, 9, 2, 4, 12, 1, 0})         // q = 1, then a forecast and negative values
	f.Add([]byte{128, 11, 0, 8, 129, 11, 9, 3, 133, 11, 14, 0}) // atlanta: B = 1e307, q = 0
	f.Add([]byte{0, 6, 0, 5, 5, 6, 1, 0})                       // TOI at B = 28 settled by a 5e-324 s stop
	f.Add([]byte{0, 6, 0, 5, 5, 6, 3, 0, 5, 6, 3, 1})           // TOI settled twice at 1e-300 s
	f.Add([]byte{0, 12, 0, 5, 5, 12, 14, 0, 5, 12, 14, 1})      // TOI at B = 1e308 settled twice past B: the cost sums overflow
	f.Add([]byte{0, 10, 0, 5, 5, 10, 6, 0})                     // TOI at B = 1e300 settled at 28 s: the squared cost overflows
	f.Add([]byte{0, 10, 0, 0, 4, 10, 0, 0})                     // B = 1e300, observes of 1e300 s and 0 s: the drift detector's squared deviation overflows
	f.Fuzz(func(t *testing.T, prog []byte) {
		s, err := New(Config{Areas: testAreas(), Retune: RetuneConfig{MinObservations: 2, DriftWarmup: 2}})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		pick := func(i byte) float64 { return extremeValues[int(i)%len(extremeValues)] }
		for ; len(prog) >= 4; prog = prog[4:] {
			op, x, y, z := prog[0], prog[1], prog[2], prog[3]
			area := [...]string{"chicago", "atlanta"}[op>>7]
			var code int
			switch op & 0x7f % 6 {
			case 0: // stats update at and around the feasibility edges
				b := pick(x)
				q := [...]float64{0, 1, 0.5, pick(y)}[z%4]
				mu := [...]float64{b * (1 - q), 0, pick(y)}[z/4%3]
				code, _ = serveProbe(t, h, http.MethodPut, "/v1/areas/"+area+"/stats",
					fmt.Sprintf(`{"b":%s,"mu":%s,"q":%s}`, num(b), num(mu), num(q)))
			case 1: // single decide on each engine family
				extra := [...]string{"", `,"policy":"multislope3"`,
					fmt.Sprintf(`,"policy":"softml","prediction":{"predicted_stop_s":%s}`, num(pick(y))),
					fmt.Sprintf(`,"policy":"distadvice","prediction":{"predicted_stop_s":%s,"m1":%s,"m2":%s}`, num(pick(y)), num(pick(y)), num(pick(z))),
				}[z%4]
				code, _ = serveProbe(t, h, http.MethodPost, "/v1/decide",
					fmt.Sprintf(`{"vehicle_id":"v%d","area":%q,"b":%s%s}`, z, area, num(pick(x)), extra))
			case 2: // batch decide mixing extreme and default items
				code, _ = serveProbe(t, h, http.MethodPost, "/v1/decide/batch",
					fmt.Sprintf(`{"requests":[{"vehicle_id":"a","area":%q,"b":%s,"ledger":%t},{"vehicle_id":"b","area":%q,"b":%s},{"vehicle_id":"c","area":%q}]}`,
						area, num(pick(x)), z&1 == 1, area, num(pick(y)), area))
			case 3: // observe, with a forecast on odd z
				extra := ""
				if z&1 == 1 {
					extra = `,"predicted_stop_s":` + num(pick(y))
				}
				code, _ = serveProbe(t, h, http.MethodPost, "/v1/observe",
					fmt.Sprintf(`{"area":%q,"stop_sec":%s%s}`, area, num(pick(x)), extra))
			case 4: // observe batch
				code, _ = serveProbe(t, h, http.MethodPost, "/v1/observe/batch",
					fmt.Sprintf(`{"observations":[{"area":%q,"stop_sec":%s},{"area":%q,"stop_sec":%s}]}`,
						area, num(pick(x)), area, num(pick(y))))
			case 5: // ledger decide at B = pick(x), settled by a stop of pick(y)
				var body []byte
				code, body = serveProbe(t, h, http.MethodPost, "/v1/decide",
					fmt.Sprintf(`{"vehicle_id":"l%d","area":%q,"b":%s,"ledger":true}`, z, area, num(pick(x))))
				var d DecideResponse
				if code == http.StatusOK && json.Unmarshal(body, &d) == nil && d.DecisionID != "" {
					code, _ = serveProbe(t, h, http.MethodPost, "/v1/observe",
						fmt.Sprintf(`{"area":%q,"stop_sec":%s,"decision_id":%q}`, area, num(pick(y)), d.DecisionID))
				}
			}
			s.sampler.Sample()
			for _, path := range []string{"/v1/cr", "/v1/history", "/metrics?format=json", "/v1/snapshot"} {
				if c, body := serveProbe(t, h, http.MethodGet, path, ""); c != http.StatusOK {
					t.Fatalf("GET %s: %d %s", path, c, body)
				}
			}
			if code >= 300 {
				continue
			}
			for _, a := range []string{"chicago", "atlanta"} {
				if c, body := serveProbe(t, h, http.MethodPost, "/v1/decide", `{"vehicle_id":"check","area":"`+a+`"}`); c != http.StatusOK {
					t.Fatalf("area %s stopped answering decides: %d %s", a, c, body)
				}
			}
			serveProbe(t, h, http.MethodGet, "/v1/areas", "")
		}
	})
}

// TestNonFiniteStatsRefused: statistics whose strategy would publish a
// number that is not finite are refused with a stable class, and the
// area keeps serving its previous view. At b = 1e308 b-DET's threshold
// sqrt(mu B / q) overflows.
func TestNonFiniteStatsRefused(t *testing.T) {
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const decide = `{"vehicle_id":"v","area":"chicago"}`
	_, before := serveProbe(t, h, http.MethodPost, "/v1/decide", decide)
	_, areasBefore := serveProbe(t, h, http.MethodGet, "/v1/areas", "")

	code, body := serveProbe(t, h, http.MethodPut, "/v1/areas/chicago/stats", `{"b":1e308,"mu":5,"q":0.5}`)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), `"invalid_stats"`) {
		t.Fatalf("stats update at b = 1e308: %d %s, want 422 invalid_stats", code, body)
	}
	if _, after := serveProbe(t, h, http.MethodPost, "/v1/decide", decide); string(after) != string(before) {
		t.Errorf("default decide changed after the refused update:\n got %s\nwant %s", after, before)
	}
	if _, after := serveProbe(t, h, http.MethodGet, "/v1/areas", ""); string(after) != string(areasBefore) {
		t.Errorf("/v1/areas changed after the refused update:\n got %s\nwant %s", after, areasBefore)
	}

	for _, c := range []struct {
		body, code string
		status     int
	}{
		{`{"vehicle_id":"v","area":"chicago","b":1e308}`, "invalid_stats", http.StatusUnprocessableEntity},
		{`{"vehicle_id":"v","area":"chicago","b":1e308,"policy":"multislope3"}`, "invalid_policy_params", http.StatusBadRequest},
	} {
		code, body := serveProbe(t, h, http.MethodPost, "/v1/decide", c.body)
		if code != c.status || !strings.Contains(string(body), `"`+c.code+`"`) {
			t.Errorf("%s: %d %s, want %d %s", c.body, code, body, c.status, c.code)
		}
	}
	code, body = serveProbe(t, h, http.MethodPost, "/v1/decide/batch",
		`{"requests":[{"vehicle_id":"a","area":"chicago","b":1e308},{"vehicle_id":"b","area":"chicago"}]}`)
	var batch BatchDecideResponse
	if err := json.Unmarshal(body, &batch); err != nil || code != http.StatusOK || len(batch.Results) != 2 {
		t.Fatalf("batch with one b = 1e308 item: %d %s", code, body)
	}
	if e := batch.Results[0].Error; e == nil || e.Code != "invalid_stats" {
		t.Errorf("b = 1e308 item: %+v, want an invalid_stats item error", batch.Results[0])
	}
	if batch.Results[1].Decision == nil {
		t.Errorf("default item not delivered beside it: %+v", batch.Results[1])
	}
}

// TestUnencodableReplyAnswers500: a reply that cannot be encoded answers
// 500 internal, counted, never a 2xx without a body; in a batch only the
// failing item becomes an internal item error.
func TestUnencodableReplyAnswers500(t *testing.T) {
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	failed := func() int64 { return s.Recorder().Registry().Counter("http_encode_failed_total").Value() }

	rr := httptest.NewRecorder()
	s.writeJSON(rr, http.StatusOK, DecideResponse{VehicleID: "v", ThresholdSec: math.Inf(1)})
	var e ErrorResponse
	if rr.Code != http.StatusInternalServerError || json.Unmarshal(rr.Body.Bytes(), &e) != nil || e.Error.Code != "internal" {
		t.Fatalf("single reply: %d %q, want 500 internal", rr.Code, rr.Body)
	}
	if failed() != 1 {
		t.Fatalf("http_encode_failed_total = %d, want 1", failed())
	}

	s.Recorder().Registry().Gauge("probe_gauge").Set(math.Inf(1))
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if rr.Code != http.StatusInternalServerError || json.Unmarshal(rr.Body.Bytes(), &e) != nil || e.Error.Code != "internal" {
		t.Fatalf("JSON metrics with a +Inf gauge: %d %q, want 500 internal", rr.Code, rr.Body)
	}
	if failed() != 2 {
		t.Fatalf("http_encode_failed_total = %d, want 2", failed())
	}

	items := []BatchItem{
		{Decision: &DecideResponse{VehicleID: "ok-1", B: 28}},
		{Decision: &DecideResponse{VehicleID: "bad", B: 28, WorstCaseCost: math.Inf(1)}},
		{Error: &APIError{Code: "unknown_area", Message: "x", Status: 404}},
	}
	rr = httptest.NewRecorder()
	writeBatch(s, rr, BatchDecideResponse{Seed: 1, Results: items}, items, func(e *APIError) BatchItem { return BatchItem{Error: e} })
	var got BatchDecideResponse
	if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &got) != nil || len(got.Results) != 3 {
		t.Fatalf("batch reply: %d %q", rr.Code, rr.Body)
	}
	if got.Results[0].Decision == nil || got.Results[0].Decision.VehicleID != "ok-1" || got.Results[2].Error == nil {
		t.Errorf("the encodable items were not delivered: %s", rr.Body)
	}
	if e := got.Results[1].Error; e == nil || e.Code != "internal" || e.Status != http.StatusInternalServerError {
		t.Errorf("the unencodable item: %+v, want an internal item error", got.Results[1])
	}
	if failed() != 3 {
		t.Errorf("http_encode_failed_total = %d, want 3", failed())
	}
}
