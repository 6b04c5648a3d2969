package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idlereduce/internal/ledger"
	"idlereduce/internal/skirental"
)

// ledgerDecide opts one decide into the ledger and returns the reply.
func ledgerDecide(t *testing.T, url, vehicle, area string) DecideResponse {
	t.Helper()
	var resp DecideResponse
	body := fmt.Sprintf(`{"vehicle_id":%q,"area":%q,"seed":42,"ledger":true}`, vehicle, area)
	status, raw := doJSON(t, "POST", url+"/v1/decide", body, &resp)
	if status != http.StatusOK {
		t.Fatalf("ledger decide: status %d: %s", status, raw)
	}
	if resp.DecisionID == "" {
		t.Fatalf("ledger decide returned no decision_id: %s", raw)
	}
	return resp
}

// ledgerObserve settles one decision and returns the reply.
func ledgerObserve(t *testing.T, url, area, decisionID string, stop float64) ObserveResponse {
	t.Helper()
	var resp ObserveResponse
	body := fmt.Sprintf(`{"area":%q,"stop_sec":%v,"decision_id":%q}`, area, stop, decisionID)
	status, raw := doJSON(t, "POST", url+"/v1/observe", body, &resp)
	if status != http.StatusOK {
		t.Fatalf("settle observe: status %d: %s", status, raw)
	}
	return resp
}

// crTable fetches GET /v1/cr.
func crTable(t *testing.T, url string) CRResponse {
	t.Helper()
	var resp CRResponse
	if status, raw := doJSON(t, "GET", url+"/v1/cr", "", &resp); status != http.StatusOK {
		t.Fatalf("cr table: status %d: %s", status, raw)
	}
	return resp
}

// crRow finds one {area, engine} row of the table.
func crRow(t *testing.T, resp CRResponse, area, engine string) ledger.Row {
	t.Helper()
	for _, r := range resp.Rows {
		if r.Area == area && r.Engine == engine {
			return r
		}
	}
	t.Fatalf("no CR row for %s/%s in %+v", area, engine, resp.Rows)
	return ledger.Row{}
}

// TestDecideLedgerOptIn: a decision id is minted only when the request
// opts in — via the body field or the X-Ledger header — and replies
// without opt-in carry no trace of the ledger on the wire.
func TestDecideLedgerOptIn(t *testing.T) {
	_, ts := newTestServer(t, nil)

	// No opt-in: the raw reply bytes must not mention the ledger.
	status, raw := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"v-1","area":"chicago","seed":42}`, nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if strings.Contains(string(raw), "decision_id") {
		t.Fatalf("reply without opt-in leaks decision_id: %s", raw)
	}

	// Body opt-in.
	dec := ledgerDecide(t, ts.URL, "v-1", "chicago")
	if !strings.Contains(dec.DecisionID, "-d") {
		t.Errorf("decision id %q missing the d-prefix", dec.DecisionID)
	}

	// Header opt-in: same effect without touching the body.
	req, err := http.NewRequest("POST", ts.URL+"/v1/decide",
		strings.NewReader(`{"vehicle_id":"v-1","area":"chicago","seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Ledger", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hdec DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&hdec); err != nil {
		t.Fatal(err)
	}
	if hdec.DecisionID == "" {
		t.Fatal("X-Ledger header did not mint a decision id")
	}
	if hdec.DecisionID == dec.DecisionID {
		t.Fatal("decision ids are not unique")
	}

	// Batch header opt-in covers every item.
	var batch BatchDecideResponse
	breq, _ := http.NewRequest("POST", ts.URL+"/v1/decide/batch",
		strings.NewReader(`{"requests":[{"vehicle_id":"v-1","area":"chicago"},{"vehicle_id":"v-2","area":"atlanta"}]}`))
	breq.Header.Set("Content-Type", "application/json")
	breq.Header.Set("X-Ledger", "1")
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if err := json.NewDecoder(bresp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	for i, item := range batch.Results {
		if item.Decision == nil || item.Decision.DecisionID == "" {
			t.Errorf("batch item %d missing decision id", i)
		}
	}
}

// TestObserveSettlesDecision: the full join loop — decide with opt-in,
// observe with the decision id — lands the realized cost pair in the
// reply and the {area, engine} row in /v1/cr, with the stable error
// classes on unknown and duplicate ids, fail-closed either way.
func TestObserveSettlesDecision(t *testing.T) {
	_, ts := newTestServer(t, nil)
	dec := ledgerDecide(t, ts.URL, "v-1", "chicago")

	stop := dec.ThresholdSec + 5
	obs := ledgerObserve(t, ts.URL, "chicago", dec.DecisionID, stop)
	if !obs.Settled {
		t.Fatalf("observe did not settle: %+v", obs)
	}
	wantOnline, wantOpt := skirental.OnlineCost(dec.ThresholdSec, stop, dec.B), skirental.OfflineCost(stop, dec.B)
	if obs.OnlineCost != wantOnline || obs.OptCost != wantOpt {
		t.Errorf("realized costs (%v, %v), want (%v, %v)", obs.OnlineCost, obs.OptCost, wantOnline, wantOpt)
	}

	table := crTable(t, ts.URL)
	row := crRow(t, table, "chicago", "constrained@v1")
	if row.Settled != 1 {
		t.Errorf("row settled %d, want 1", row.Settled)
	}
	if row.CR <= 0 {
		t.Errorf("row CR %v, want > 0", row.CR)
	}
	if row.Bound <= 1 {
		t.Errorf("row bound %v, want the engine's published CR > 1", row.Bound)
	}
	if table.Counters.Settled != 1 || table.Counters.Issued < 1 {
		t.Errorf("counters %+v, want settled 1", table.Counters)
	}

	// Duplicate settle: stable 409 class.
	status, raw := doJSON(t, "POST", ts.URL+"/v1/observe",
		fmt.Sprintf(`{"area":"chicago","stop_sec":5,"decision_id":%q}`, dec.DecisionID), nil)
	if status != http.StatusConflict || errCode(t, raw) != "duplicate_settle" {
		t.Fatalf("duplicate settle: status %d code %s", status, errCode(t, raw))
	}

	// Unknown id: stable 404 class, and fail-closed — the rejected
	// observation must not advance the area's stream.
	var before ObserveResponse
	doJSON(t, "POST", ts.URL+"/v1/observe", `{"area":"chicago","stop_sec":5}`, &before)
	status, raw = doJSON(t, "POST", ts.URL+"/v1/observe",
		`{"area":"chicago","stop_sec":5,"decision_id":"no-such-id"}`, nil)
	if status != http.StatusNotFound || errCode(t, raw) != "unknown_decision" {
		t.Fatalf("unknown settle: status %d code %s", status, errCode(t, raw))
	}
	var after ObserveResponse
	doJSON(t, "POST", ts.URL+"/v1/observe", `{"area":"chicago","stop_sec":5}`, &after)
	if after.Seq != before.Seq+1 {
		t.Errorf("rejected settle advanced the stream: seq %d -> %d", before.Seq, after.Seq)
	}

	table = crTable(t, ts.URL)
	if table.Counters.Orphaned != 1 {
		t.Errorf("orphaned %d, want 1", table.Counters.Orphaned)
	}
}

// TestSettleTieChargesRestart: eq. 3 charges the restart when the stop
// reaches the threshold, so DET (threshold B) on a B-second stop costs
// 2B online against B offline.
func TestSettleTieChargesRestart(t *testing.T) {
	_, ts := newTestServer(t, nil)
	dec := ledgerDecide(t, ts.URL, "v-tie", "chicago")
	if dec.Choice != "DET" || dec.ThresholdSec != 28 || dec.B != 28 {
		t.Fatalf("chicago decide %+v, want DET at threshold 28 with b 28", dec)
	}
	obs := ledgerObserve(t, ts.URL, "chicago", dec.DecisionID, 28)
	if obs.OnlineCost != 56 || obs.OptCost != 28 {
		t.Errorf("DET on a 28 s stop settled at (%v, %v), want (56, 28)", obs.OnlineCost, obs.OptCost)
	}
}

// TestEmpiricalCRConvergesWithinBound: a synthetic in-model trace —
// mostly short stops, an occasional long one, matching the area's
// statistics regime — converges to an empirical CR whose variance band
// sits at or below the constrained engine's published bound, with no
// breach.
func TestEmpiricalCRConvergesWithinBound(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Retune.Disabled = true })
	for i := 0; i < 120; i++ {
		dec := ledgerDecide(t, ts.URL, fmt.Sprintf("fleet-%03d", i), "chicago")
		stop := 5.0
		if i%10 == 0 {
			stop = 60.0
		}
		ledgerObserve(t, ts.URL, "chicago", dec.DecisionID, stop)
	}
	table := crTable(t, ts.URL)
	row := crRow(t, table, "chicago", "constrained@v1")
	if row.Settled != 120 {
		t.Fatalf("settled %d, want 120", row.Settled)
	}
	if row.CR < 1 {
		t.Errorf("empirical CR %v below 1", row.CR)
	}
	if row.Band <= 0 || row.Band > 0.5 {
		t.Errorf("variance band %v not tight after 120 settles", row.Band)
	}
	if row.CR-row.Band > row.Bound {
		t.Errorf("empirical CR %v - band %v confidently above bound %v on an in-model trace",
			row.CR, row.Band, row.Bound)
	}
	if row.Breaches != 0 || table.Counters.Breaches != 0 {
		t.Errorf("in-model trace tripped the breach detector: row %+v counters %+v", row, table.Counters)
	}
}

// TestCRBreachOnAdversarialTrace: an adversary who stops just past the
// threshold on every stop drives the realized CR far above the
// published bound; the detector trips, the counter increments, and the
// breach surfaces in the history series.
func TestCRBreachOnAdversarialTrace(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Retune.Disabled = true
		// Tight windows so the trip lands within a short test trace.
		c.Ledger = ledger.Config{Window: 5, Patience: 2}
	})
	first := ledgerDecide(t, ts.URL, "adv-1", "chicago")
	adv := first.ThresholdSec + 0.1
	wantOnline, wantOpt := skirental.OnlineCost(first.ThresholdSec, adv, first.B), skirental.OfflineCost(adv, first.B)
	if advCR := wantOnline / wantOpt; advCR <= first.WorstCaseCR {
		t.Fatalf("adversarial CR %v does not clear the bound %v; trace cannot breach", advCR, first.WorstCaseCR)
	}
	ledgerObserve(t, ts.URL, "chicago", first.DecisionID, adv)
	for i := 1; i < 40; i++ {
		dec := ledgerDecide(t, ts.URL, "adv-1", "chicago")
		ledgerObserve(t, ts.URL, "chicago", dec.DecisionID, dec.ThresholdSec+0.1)
	}

	table := crTable(t, ts.URL)
	row := crRow(t, table, "chicago", "constrained@v1")
	if row.CR <= row.Bound {
		t.Fatalf("adversarial CR %v did not exceed bound %v", row.CR, row.Bound)
	}
	if row.Breaches == 0 || table.Counters.Breaches == 0 {
		t.Fatalf("breach detector did not trip: row %+v counters %+v", row, table.Counters)
	}
	if got := s.rec.Registry().SumCounterValues("cr_breach_total"); got == 0 {
		t.Errorf("cr_breach_total is 0, want > 0")
	}

	// The breach and CR series surface through the history sampler.
	s.sampler.Sample()
	hist := s.History()
	for _, name := range []string{"cr_breaches", "cr_worst", "settles", "ledger_pending"} {
		if _, ok := hist.Lookup(name); !ok {
			t.Errorf("history series %q missing", name)
		}
	}
	if series, ok := hist.Lookup("cr_worst"); ok && len(series.Points) > 0 {
		if got := series.Points[len(series.Points)-1]; got <= row.Bound {
			t.Errorf("cr_worst sampled %v, want above bound %v", got, row.Bound)
		}
	}
}

// TestSnapshotRoundTripWithLedger: a snapshot taken mid-join — settled
// accumulators, still-pending decisions, an orphan on the books —
// restores byte-identically, pending decisions stay settleable across
// the boundary, and duplicate detection survives it.
func TestSnapshotRoundTripWithLedger(t *testing.T) {
	donor, ts := newTestServer(t, nil)

	var pendingIDs []string
	var settledID string
	for i := 0; i < 8; i++ {
		dec := ledgerDecide(t, ts.URL, fmt.Sprintf("snap-%02d", i), "chicago")
		if i%2 == 0 {
			ledgerObserve(t, ts.URL, "chicago", dec.DecisionID, 7.5)
			settledID = dec.DecisionID
		} else {
			pendingIDs = append(pendingIDs, dec.DecisionID)
		}
	}
	// One orphan so every counter is nonzero in the capture.
	doJSON(t, "POST", ts.URL+"/v1/observe", `{"area":"chicago","stop_sec":5,"decision_id":"bogus"}`, nil)

	plane := donor.StatePlane()
	if plane.Ledger == nil {
		t.Fatal("snapshot of a ledger-active daemon omitted the ledger section")
	}
	donorBytes, err := json.Marshal(plane.Ledger)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := New(Config{Areas: testAreas(), Restore: &plane})
	if err != nil {
		t.Fatal(err)
	}
	replane := restored.StatePlane()
	if replane.Ledger == nil {
		t.Fatal("restored daemon lost the ledger section")
	}
	restoredBytes, err := json.Marshal(replane.Ledger)
	if err != nil {
		t.Fatal(err)
	}
	if string(donorBytes) != string(restoredBytes) {
		t.Fatalf("ledger state not byte-identical across restore:\ndonor:    %s\nrestored: %s", donorBytes, restoredBytes)
	}

	// Pending decisions issued by the donor settle on the restored
	// daemon; settled ids stay duplicate-detected.
	rts := newRestoredTestServer(t, restored)
	obs := ledgerObserve(t, rts.URL, "chicago", pendingIDs[0], 6)
	if !obs.Settled {
		t.Fatalf("donor-issued decision did not settle after restore: %+v", obs)
	}
	status, raw := doJSON(t, "POST", rts.URL+"/v1/observe",
		fmt.Sprintf(`{"area":"chicago","stop_sec":5,"decision_id":%q}`, settledID), nil)
	if status != http.StatusConflict || errCode(t, raw) != "duplicate_settle" {
		t.Fatalf("duplicate detection lost across restore: status %d code %s", status, errCode(t, raw))
	}

	// A ledger-idle daemon's snapshot omits the section entirely.
	idle, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	if p := idle.StatePlane(); p.Ledger != nil {
		t.Errorf("idle daemon snapshot carries a ledger section: %+v", p.Ledger)
	}
}

// TestAuditVerifyWithSettleRecords: a ledger-bearing audit log replays
// bit-identically — including a settle that crossed a snapshot/restore
// boundary — and a tampered settle record fails verification.
func TestAuditVerifyWithSettleRecords(t *testing.T) {
	audit := &syncBuffer{}
	donor, ts := newTestServer(t, func(c *Config) { c.AuditLog = audit })

	var pending string
	for i := 0; i < 4; i++ {
		dec := ledgerDecide(t, ts.URL, fmt.Sprintf("audit-%02d", i), "chicago")
		if i == 3 {
			pending = dec.DecisionID
		} else {
			ledgerObserve(t, ts.URL, "chicago", dec.DecisionID, float64(5+i*9))
		}
	}
	plane := donor.StatePlane()
	if err := donor.auditW.Flush(); err != nil {
		t.Fatal(err)
	}

	// The restored daemon appends to the same log and settles a
	// decision the donor issued.
	restored, err := New(Config{Areas: testAreas(), Restore: &plane, AuditLog: audit})
	if err != nil {
		t.Fatal(err)
	}
	rts := newRestoredTestServer(t, restored)
	ledgerObserve(t, rts.URL, "chicago", pending, 40)
	if err := restored.auditW.Flush(); err != nil {
		t.Fatal(err)
	}

	log := audit.String()
	if got := strings.Count(log, `"kind":"settle"`); got != 4 {
		t.Fatalf("log has %d settle records, want 4:\n%s", got, log)
	}
	rep, err := VerifyAudit(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("ledger-bearing log failed verification: %s", rep.String())
	}

	// Tamper with a settle record's realized cost: replay must catch it.
	tampered := strings.Replace(log, `"online_cost":`, `"online_cost":9`, 1)
	if tampered == log {
		t.Fatal("tamper did not change the log")
	}
	rep, err = VerifyAudit(strings.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("tampered settle record passed verification")
	}
}

// newRestoredTestServer wraps an already-built server in a test
// listener.
func newRestoredTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// tinyStopCR makes chicago TOI, settles one ledger decide per stop
// through Handler() and returns the handler; every read of the ledger
// plane must answer 200 with a JSON body afterwards.
func tinyStopCR(t *testing.T, stops ...float64) http.Handler {
	t.Helper()
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if code, raw := serveJSON(h, "PUT", "/v1/areas/chicago/stats", `{"b":28,"mu":0,"q":1}`); code != http.StatusOK {
		t.Fatalf("stats update: %d %s", code, raw)
	}
	for i, y := range stops {
		code, raw := serveJSON(h, "POST", "/v1/decide", fmt.Sprintf(`{"vehicle_id":"v-%d","area":"chicago","ledger":true}`, i))
		var d DecideResponse
		if code != http.StatusOK || json.Unmarshal(raw, &d) != nil || d.Choice != "TOI" {
			t.Fatalf("ledger decide: %d %s", code, raw)
		}
		if code, raw := serveJSON(h, "POST", "/v1/observe", fmt.Sprintf(`{"area":"chicago","stop_sec":%v,"decision_id":%q}`, y, d.DecisionID)); code != http.StatusOK {
			t.Fatalf("settle at %v: %d %s", y, code, raw)
		}
	}
	s.sampler.Sample()
	for _, path := range []string{"/v1/cr", "/v1/history", "/metrics?format=json"} {
		if code, raw := serveJSON(h, "GET", path, ""); code != http.StatusOK || !json.Valid(raw) {
			t.Errorf("GET %s: %d %s", path, code, raw)
		}
	}
	return h
}

// TestSettleBeyondAccumulatorRangeRefused: TOI at b = 1e200 pays a
// 1e200 restart whose square float64 cannot hold. The settle is refused
// with 400 bad_request before the ledger moves, the entry stays
// pending, and the ledger plane still snapshots (its accumulators stay
// finite) and restores.
func TestSettleBeyondAccumulatorRangeRefused(t *testing.T) {
	s, err := New(Config{Areas: testAreas()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if code, raw := serveJSON(h, "PUT", "/v1/areas/chicago/stats", `{"b":1e200,"mu":0,"q":1}`); code != http.StatusOK {
		t.Fatalf("stats update: %d %s", code, raw)
	}
	code, raw := serveJSON(h, "POST", "/v1/decide", `{"vehicle_id":"v","area":"chicago","ledger":true}`)
	var d DecideResponse
	if code != http.StatusOK || json.Unmarshal(raw, &d) != nil || d.Choice != "TOI" {
		t.Fatalf("ledger decide: %d %s", code, raw)
	}
	code, raw = serveJSON(h, "POST", "/v1/observe", fmt.Sprintf(`{"area":"chicago","stop_sec":5,"decision_id":%q}`, d.DecisionID))
	if code != http.StatusBadRequest || !strings.Contains(string(raw), `"bad_request"`) {
		t.Fatalf("settle at stop 5: %d %s, want 400 bad_request", code, raw)
	}
	code, raw = serveJSON(h, "GET", "/v1/cr", "")
	var table CRResponse
	if code != http.StatusOK || json.Unmarshal(raw, &table) != nil {
		t.Fatalf("GET /v1/cr: %d %s", code, raw)
	}
	if table.Pending != 1 || table.Counters.Settled != 0 || len(table.Rows) != 0 {
		t.Errorf("ledger after the refusal: %s, want the entry pending and nothing settled", raw)
	}
	code, raw = serveJSON(h, "GET", "/v1/snapshot", "")
	if code != http.StatusOK || !json.Valid(raw) {
		t.Fatalf("GET /v1/snapshot: %d %s", code, raw)
	}
	plane, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Restore: &plane}); err != nil {
		t.Errorf("restore from the snapshot: %v", err)
	}
}

// TestCRFiniteAtSubnormalStop: TOI settled by a 5e-324 s stop has a CR
// float64 cannot hold (28 / 5e-324); the ledger reports the largest
// finite float64 and a band that is not estimable.
func TestCRFiniteAtSubnormalStop(t *testing.T) {
	h := tinyStopCR(t, 5e-324)
	_, raw := serveJSON(h, "GET", "/v1/cr", "")
	var table CRResponse
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatal(err)
	}
	if row := crRow(t, table, "chicago", "constrained@v1"); row.CR != math.MaxFloat64 || row.Band != -1 {
		t.Errorf("row %+v, want cr MaxFloat64 and band -1", row)
	}
}

// TestCRFiniteAtTinyStops: two TOI settles at 1e-200 s keep their
// finite CR bit for bit; the band, whose squared means underflow to 0,
// is reported as not estimable.
func TestCRFiniteAtTinyStops(t *testing.T) {
	h := tinyStopCR(t, 1e-200, 1e-200)
	_, raw := serveJSON(h, "GET", "/v1/cr", "")
	var table CRResponse
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatal(err)
	}
	if row := crRow(t, table, "chicago", "constrained@v1"); row.CR != 28/1e-200 || row.Band != -1 {
		t.Errorf("row %+v, want cr %v and band -1", row, 28/1e-200)
	}
}
