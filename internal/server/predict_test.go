package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idlereduce/internal/policy"
)

// The prediction serving contract: advised engines accept an optional
// prediction block plus params, degrade bit-identically to the
// constrained fallback at lambda=0, validate every malformed block
// into a stable error class, and write audit records that replay.

// TestSoftMLZeroLambdaMatchesConstrainedWire pins the robustness
// extreme on the wire: softml@v1 with lambda=0 must produce the same
// decision fields as constrained@v1 for the same (vehicle, area, seed)
// — with and without a prediction riding along — including in the
// N-Rand region where the threshold is drawn from the fallback's
// density.
func TestSoftMLZeroLambdaMatchesConstrainedWire(t *testing.T) {
	_, ts := newTestServerAreas(t, conformanceAreas())
	preds := []string{
		``,
		`,"prediction":{"predicted_stop_s":500}`,
		`,"prediction":{"predicted_stop_s":3,"confidence":0.9}`,
		`,"prediction":{"predicted_stop_s":40,"confidence":1,"m1":40,"m2":1700}`,
	}
	for _, area := range []string{"chicago", "atlanta", "nrandia"} {
		for seed := uint64(1); seed <= 20; seed++ {
			var want DecideResponse
			base := fmt.Sprintf(`{"vehicle_id":"zl","area":%q,"seed":%d`, area, seed)
			if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide",
				base+`,"policy":"constrained@v1"}`, &want); status != http.StatusOK {
				t.Fatalf("constrained %s/%d: %d %s", area, seed, status, raw)
			}
			for pi, p := range preds {
				var got DecideResponse
				body := base + `,"policy":"softml@v1","params":{"lambda":0}` + p + `}`
				if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, &got); status != http.StatusOK {
					t.Fatalf("softml %s/%d/%d: %d %s", area, seed, pi, status, raw)
				}
				if got.Choice != want.Choice ||
					math.Float64bits(got.ThresholdSec) != math.Float64bits(want.ThresholdSec) ||
					math.Float64bits(got.WorstCaseCost) != math.Float64bits(want.WorstCaseCost) ||
					math.Float64bits(got.WorstCaseCR) != math.Float64bits(want.WorstCaseCR) {
					t.Errorf("%s seed=%d pred=%d: softml lambda=0 %+v != constrained %+v", area, seed, pi, got, want)
				}
			}
		}
	}
}

// TestPredictionValidationTable: every way a prediction or params
// block can be wrong maps to one stable 4xx class, on the single
// endpoint and embedded per-slot in a batch.
func TestPredictionValidationTable(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"negative predicted stop", `{"vehicle_id":"v","area":"chicago","policy":"softml","prediction":{"predicted_stop_s":-4}}`, 400, "invalid_prediction"},
		{"predicted stop square overflows", `{"vehicle_id":"v","area":"chicago","policy":"distadvice","prediction":{"predicted_stop_s":1e155}}`, 400, "invalid_prediction"},
		{"confidence below range", `{"vehicle_id":"v","area":"chicago","policy":"softml","prediction":{"predicted_stop_s":9,"confidence":-0.1}}`, 400, "invalid_prediction"},
		{"confidence above range", `{"vehicle_id":"v","area":"chicago","policy":"softml","prediction":{"predicted_stop_s":9,"confidence":1.5}}`, 400, "invalid_prediction"},
		{"m1 without m2", `{"vehicle_id":"v","area":"chicago","policy":"distadvice","prediction":{"predicted_stop_s":9,"m1":9}}`, 400, "invalid_prediction"},
		{"m2 without m1", `{"vehicle_id":"v","area":"chicago","policy":"distadvice","prediction":{"predicted_stop_s":9,"m2":100}}`, 400, "invalid_prediction"},
		{"m2 below m1 squared", `{"vehicle_id":"v","area":"chicago","policy":"distadvice","prediction":{"predicted_stop_s":9,"m1":10,"m2":50}}`, 400, "invalid_prediction"},
		{"negative m1", `{"vehicle_id":"v","area":"chicago","policy":"distadvice","prediction":{"predicted_stop_s":9,"m1":-1,"m2":50}}`, 400, "invalid_prediction"},
		{"prediction to constrained", `{"vehicle_id":"v","area":"chicago","prediction":{"predicted_stop_s":9}}`, 400, "invalid_prediction"},
		{"prediction to multislope", `{"vehicle_id":"v","area":"chicago","policy":"multislope3","prediction":{"predicted_stop_s":9}}`, 400, "invalid_prediction"},
		{"params to constrained", `{"vehicle_id":"v","area":"chicago","policy":"constrained","params":{"lambda":0.5}}`, 400, "invalid_policy_params"},
		{"params to multislope", `{"vehicle_id":"v","area":"chicago","policy":"multislope3","params":{"lambda":0.5}}`, 400, "invalid_policy_params"},
		{"unknown param", `{"vehicle_id":"v","area":"chicago","policy":"softml","params":{"gamma":0.5}}`, 400, "invalid_policy_params"},
		{"lambda above range", `{"vehicle_id":"v","area":"chicago","policy":"softml","params":{"lambda":2}}`, 400, "invalid_policy_params"},
		{"lambda below range", `{"vehicle_id":"v","area":"distadvice","policy":"softml","params":{"lambda":-0.2}}`, 400, "invalid_policy_params"},
		{"valid softml prediction", `{"vehicle_id":"v","area":"chicago","policy":"softml","prediction":{"predicted_stop_s":9}}`, 200, ""},
		{"valid distadvice moments", `{"vehicle_id":"v","area":"chicago","policy":"distadvice","params":{"lambda":1},"prediction":{"predicted_stop_s":9,"m1":9,"m2":100}}`, 200, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", c.body, nil)
			if status != c.status {
				t.Fatalf("status %d, want %d: %s", status, c.status, raw)
			}
			if c.code != "" && errCode(t, raw) != c.code {
				t.Errorf("code %s, want %s", errCode(t, raw), c.code)
			}
			// The same failure embeds per-slot in a batch without
			// failing the envelope.
			var br BatchDecideResponse
			status, raw = doJSON(t, "POST", ts.URL+"/v1/decide/batch",
				fmt.Sprintf(`{"requests":[%s]}`, c.body), &br)
			if status != http.StatusOK {
				t.Fatalf("batch status %d: %s", status, raw)
			}
			if c.code == "" {
				if br.Results[0].Decision == nil || br.Results[0].Error != nil {
					t.Errorf("batch slot rejected a valid request: %s", raw)
				}
			} else if br.Results[0].Error == nil || br.Results[0].Error.Code != c.code {
				t.Errorf("batch slot error %+v, want code %s", br.Results[0].Error, c.code)
			}
		})
	}
}

// advisedPosts is a traffic mix exercising both advised engines with
// params, predictions, moment pairs, custom B, and the fallback path.
func advisedPosts() []string {
	return []string{
		`{"vehicle_id":"a-1","area":"chicago","policy":"softml","prediction":{"predicted_stop_s":120}}`,
		`{"vehicle_id":"a-2","area":"nrandia","seed":5,"policy":"softml@v1","params":{"lambda":0.8},"prediction":{"predicted_stop_s":4,"confidence":0.7}}`,
		`{"vehicle_id":"a-3","area":"chicago","b":60,"policy":"softml","params":{"lambda":1},"prediction":{"predicted_stop_s":10}}`,
		`{"vehicle_id":"a-4","area":"atlanta","policy":"distadvice","prediction":{"predicted_stop_s":30,"m1":30,"m2":1100}}`,
		`{"vehicle_id":"a-5","area":"nrandia","seed":9,"policy":"distadvice@v1","params":{"lambda":0.3},"prediction":{"predicted_stop_s":14,"confidence":0.5,"m1":14,"m2":260}}`,
		`{"vehicle_id":"a-6","area":"nrandia","seed":11,"policy":"softml","params":{"lambda":0.5}}`,
	}
}

// TestAdvisedAuditReplaysClean: serving advised traffic — params,
// predictions, custom B, batches — writes audit records that
// VerifyAudit replays bit-identically, and the records carry the
// resolved params and the prediction block verbatim.
func TestAdvisedAuditReplaysClean(t *testing.T) {
	audit := &syncBuffer{}
	s, err := New(Config{Areas: conformanceAreas(), AuditLog: audit})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, body := range advisedPosts() {
		if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, nil); status != http.StatusOK {
			t.Fatalf("post %d: %d %s", i, status, raw)
		}
	}
	batch := fmt.Sprintf(`{"seed":7,"requests":[%s]}`, strings.Join(advisedPosts()[:3], ","))
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide/batch", batch, nil); status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, raw)
	}
	s.auditW.Flush()

	recs := decodeAuditLines(t, audit.String())
	if len(recs) != len(advisedPosts())+3 {
		t.Fatalf("got %d audit records, want %d", len(recs), len(advisedPosts())+3)
	}
	withPred, withParams := 0, 0
	for _, rec := range recs {
		if rec.Prediction != nil {
			withPred++
		}
		if rec.Params != nil {
			withParams++
			if _, ok := rec.Params["lambda"]; !ok {
				t.Errorf("record %s params %v missing resolved lambda", rec.VehicleID, rec.Params)
			}
		}
	}
	// 5 of 6 singles and all 3 batch slots carried a prediction;
	// explicit params rode on 4 singles and 2 batch slots (defaults are
	// implied by the engine version and not re-recorded).
	if withPred != 8 || withParams != 6 {
		t.Errorf("prediction on %d records (want 8), resolved params on %d of %d (want 6)", withPred, withParams, len(recs))
	}

	rep, err := VerifyAudit(strings.NewReader(audit.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Matched != rep.Records {
		t.Fatalf("advised audit replay: %s\n%v", rep.String(), rep.Details)
	}
}

// TestVerifyAuditDetectsAdvisedTampering: mutating a record's lambda
// or its recorded prediction changes the replayed decision, so
// verification must flag it.
func TestVerifyAuditDetectsAdvisedTampering(t *testing.T) {
	audit := &syncBuffer{}
	s, err := New(Config{Areas: conformanceAreas(), AuditLog: audit})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// lambda=1 with a short forecast pins the advice threshold to 0;
	// any tamper below flips the decision.
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"t-1","area":"chicago","policy":"softml","params":{"lambda":1},"prediction":{"predicted_stop_s":500}}`, nil); status != http.StatusOK {
		t.Fatalf("decide: %d %s", status, raw)
	}
	s.auditW.Flush()
	line := strings.TrimSpace(audit.String())

	tampers := map[string]func(*AuditRecord){
		"lambda":     func(r *AuditRecord) { r.Params["lambda"] = 0 },
		"prediction": func(r *AuditRecord) { r.Prediction.PredictedStopSec = 2 },
		"drop pred":  func(r *AuditRecord) { r.Prediction = nil },
	}
	for name, mutate := range tampers {
		t.Run(name, func(t *testing.T) {
			var rec AuditRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatal(err)
			}
			mutate(&rec)
			raw, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := VerifyAudit(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mismatched != 1 {
				t.Errorf("tampered record verified clean: %s", rep.String())
			}
		})
	}
}

// TestAdvisedDeterminism: advised requests — params, predictions, and
// batches — serve byte-identical bodies across fresh instances and a
// snapshot-restored replica.
func TestAdvisedDeterminism(t *testing.T) {
	batch := fmt.Sprintf(`{"seed":7,"requests":[%s]}`, strings.Join(advisedPosts(), ","))
	collect := func(t *testing.T, url string) [][]byte {
		t.Helper()
		var got [][]byte
		for i, body := range advisedPosts() {
			status, raw := doJSON(t, "POST", url+"/v1/decide", body, nil)
			if status != http.StatusOK {
				t.Fatalf("single %d status %d: %s", i, status, raw)
			}
			got = append(got, raw)
		}
		status, raw := doJSON(t, "POST", url+"/v1/decide/batch", batch, nil)
		if status != http.StatusOK {
			t.Fatalf("batch status %d: %s", status, raw)
		}
		return append(got, raw)
	}

	var ref [][]byte
	var donor *Server
	for inst := 0; inst < 6; inst++ {
		s, err := New(Config{Areas: conformanceAreas()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		got := collect(t, ts.URL)
		ts.Close()
		if ref == nil {
			ref, donor = got, s
			continue
		}
		for i := range got {
			if !bytes.Equal(got[i], ref[i]) {
				t.Errorf("instance=%d reply %d diverged:\n%s\n%s", inst, i, got[i], ref[i])
			}
		}
	}

	// A replica booted from the donor's snapshot serves the same bytes.
	data, err := EncodeSnapshot(donor.StatePlane())
	if err != nil {
		t.Fatal(err)
	}
	plane, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, func(c *Config) {
		c.Areas = nil
		c.Restore = &plane
	})
	got := collect(t, ts2.URL)
	for i := range got {
		if !bytes.Equal(got[i], ref[i]) {
			t.Errorf("snapshot replica reply %d diverged:\n%s\n%s", i, got[i], ref[i])
		}
	}
}

// TestPoliciesEndpointShowsParams: advised engines publish their
// accepted params (name, doc, default, range) in the engine listing;
// param-free engines omit the block.
func TestPoliciesEndpointShowsParams(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var resp PoliciesResponse
	if status, raw := doJSON(t, "GET", ts.URL+"/v1/policies", "", &resp); status != 200 {
		t.Fatalf("policies: %d %s", status, raw)
	}
	byName := map[string]PolicyInfo{}
	for _, p := range resp.Policies {
		byName[p.Name] = p
	}
	for _, name := range []string{policy.SoftMLEngine, policy.DistAdviceEngine} {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("engine %s missing from listing", name)
		}
		if len(e.Params) != 1 {
			t.Fatalf("%s params %+v, want exactly lambda", name, e.Params)
		}
		p := e.Params[0]
		if p.Name != "lambda" || p.Default != 0.5 || p.Min != 0 || p.Max != 1 || p.Doc == "" {
			t.Errorf("%s lambda spec %+v", name, p)
		}
	}
	if c := byName[policy.DefaultEngine]; len(c.Params) != 0 {
		t.Errorf("constrained published params %+v, want none", c.Params)
	}
}

// TestObserveForecastQualitySeries: an observe carrying the forecast
// made for its stop grades it into the global and per-area error
// histograms and the side counters; the per-area series is the area's
// own handle, shared by its observes and named as before.
func TestObserveForecastQualitySeries(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for _, body := range []string{
		`{"area":"chicago","stop_sec":30,"predicted_stop_s":40}`, // consistent: both past B = 28
		`{"area":"chicago","stop_sec":50,"predicted_stop_s":10}`, // regret: forecast short, stop long
		`{"area":"atlanta","stop_sec":7,"predicted_stop_s":5}`,   // consistent: both short
		`{"area":"atlanta","stop_sec":9}`,                        // no forecast, not graded
	} {
		if status, raw := doJSON(t, "POST", ts.URL+"/v1/observe", body, nil); status != http.StatusOK {
			t.Fatalf("observe %s: status %d: %s", body, status, raw)
		}
	}
	snap := s.Recorder().Snapshot()
	for _, c := range []struct {
		name  string
		count uint64
		sum   float64
	}{
		{`predict_err_abs_sec`, 3, 52},
		{`predict_err_abs_sec{area="chicago"}`, 2, 50},
		{`predict_err_abs_sec{area="atlanta"}`, 1, 2},
	} {
		h, ok := snap.HistogramValue(c.name)
		if !ok || h.Count != c.count || h.Sum != c.sum {
			t.Errorf("%s = %+v (present %v), want count %d sum %v", c.name, h, ok, c.count, c.sum)
		}
	}
	if got := snap.SumCounters("predict_consistency_total"); got != 2 {
		t.Errorf("predict_consistency_total = %d, want 2", got)
	}
	if got := snap.SumCounters("predict_regret_total"); got != 1 {
		t.Errorf("predict_regret_total = %d, want 1", got)
	}
}
