package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idlereduce/internal/parallel"
	"idlereduce/internal/policy"
)

// The cross-engine conformance layer: every registered engine must
// satisfy the same serving contract the constrained default does —
// byte-identical replies across restarts, clean audit replay, and
// stable 4xx error classes for every way a policy request can be wrong.

// conformanceAreas are the standard test areas plus one deep in the
// N-Rand region, so randomized threshold draws are exercised for every
// engine.
func conformanceAreas() []AreaState {
	return append(testAreas(), AreaState{ID: "nrandia", B: 28, Mu: 4, Q: 0.25})
}

// TestCrossEngineDeterminism runs the determinism contract once per
// registered engine spec: identical requests return byte-identical
// bodies across six fresh server instances. It also pins spec aliasing
// — "", "constrained" and "constrained@v1" are the same engine and
// must serve the same bytes, as must "multislope3" and "multislope3@v1".
func TestCrossEngineDeterminism(t *testing.T) {
	specGroups := [][]string{
		{"", "constrained", "constrained@v1"},
		{"multislope3", "multislope3@v1"},
		{"softml", "softml@v1"},
		{"distadvice", "distadvice@v1"},
	}
	requests := func(spec string) (singles []string, batch string) {
		p := ""
		if spec != "" {
			p = fmt.Sprintf(`,"policy":%q`, spec)
		}
		singles = []string{
			fmt.Sprintf(`{"vehicle_id":"det-1","area":"chicago","seed":11%s}`, p),
			fmt.Sprintf(`{"vehicle_id":"det-1","area":"chicago","b":60,"seed":11%s}`, p),
			fmt.Sprintf(`{"vehicle_id":"rnd-1","area":"nrandia","seed":11%s}`, p),
			fmt.Sprintf(`{"vehicle_id":"rnd-2","area":"nrandia","seed":12%s}`, p),
		}
		batch = fmt.Sprintf(`{"seed":11,"requests":[
			{"vehicle_id":"rnd-1","area":"nrandia"%s},
			{"vehicle_id":"det-1","area":"chicago"%s},
			{"vehicle_id":"rnd-9","area":"nrandia","seed":99%s},
			{"vehicle_id":"det-2","area":"atlanta","b":45%s}]}`, p, p, p, p)
		return singles, batch
	}
	collect := func(t *testing.T, ts *httptest.Server, singles []string, batch string) [][]byte {
		t.Helper()
		var got [][]byte
		for i, body := range singles {
			status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, nil)
			if status != http.StatusOK {
				t.Fatalf("single %d status %d: %s", i, status, raw)
			}
			got = append(got, raw)
		}
		status, raw := doJSON(t, "POST", ts.URL+"/v1/decide/batch", batch, nil)
		if status != http.StatusOK {
			t.Fatalf("batch status %d: %s", status, raw)
		}
		return append(got, raw)
	}

	for _, group := range specGroups {
		var want [][]byte
		for _, spec := range group {
			spec := spec
			t.Run(fmt.Sprintf("spec=%q", spec), func(t *testing.T) {
				singles, batch := requests(spec)
				var ref [][]byte
				// Six fresh instances: restart identity is part of the
				// contract, not just run-to-run identity.
				for inst := 0; inst < 6; inst++ {
					s, err := New(Config{Areas: conformanceAreas()})
					if err != nil {
						t.Fatal(err)
					}
					ts := httptest.NewServer(s.Handler())
					got := collect(t, ts, singles, batch)
					ts.Close()
					if ref == nil {
						ref = got
						continue
					}
					for i := range got {
						if !bytes.Equal(got[i], ref[i]) {
							t.Errorf("instance=%d reply %d diverged:\n%s\n%s", inst, i, got[i], ref[i])
						}
					}
				}
				// Spec aliases within a group serve identical bytes.
				if want == nil {
					want = ref
				} else {
					for i := range ref {
						if !bytes.Equal(ref[i], want[i]) {
							t.Errorf("spec %q reply %d differs from its alias group:\n%s\n%s",
								spec, i, ref[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestMultislopeAuditReplaysClean is the acceptance property of the
// engine-generic audit plane: a serving run under multislope3 —
// including randomized segments, custom B, batches, and a stats swap —
// writes records that VerifyAudit replays bit-identically, and the
// records carry the engine name, version, and full schedule.
func TestMultislopeAuditReplaysClean(t *testing.T) {
	audit := &syncBuffer{}
	s, err := New(Config{Areas: conformanceAreas(), AuditLog: audit, DefaultPolicy: "multislope3"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	posts := []string{
		`{"vehicle_id":"m-1","area":"chicago"}`,
		`{"vehicle_id":"m-2","area":"nrandia","seed":5}`,
		`{"vehicle_id":"m-3","area":"chicago","b":60}`,
		`{"vehicle_id":"m-4","area":"atlanta","policy":"multislope3@v1"}`,
		`{"vehicle_id":"m-5","area":"chicago","policy":"constrained"}`,
	}
	for i, body := range posts {
		if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, nil); status != http.StatusOK {
			t.Fatalf("decide %d: status %d: %s", i, status, raw)
		}
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide/batch",
		`{"seed":7,"requests":[{"vehicle_id":"b1","area":"nrandia"},{"vehicle_id":"b2","area":"atlanta"}]}`, nil); status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	if status, _ := doJSON(t, "PUT", ts.URL+"/v1/areas/chicago/stats",
		`{"mu":10,"q":0.2}`, nil); status != http.StatusOK {
		t.Fatalf("stats update: status %d", status)
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"m-after","area":"chicago"}`, nil); status != http.StatusOK {
		t.Fatalf("post-update decide: status %d", status)
	}

	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := decodeAuditLines(t, audit.String())
	if len(recs) != 8 {
		t.Fatalf("audit has %d records, want 8", len(recs))
	}
	var msRecords int
	for _, rec := range recs {
		if rec.Policy == "" || rec.PolicyVersion == 0 {
			t.Errorf("record without engine identity: %+v", rec)
		}
		if rec.Policy == policy.MultislopeEngine {
			msRecords++
			if len(rec.Schedule) != 2 {
				t.Errorf("multislope record with %d schedule rungs: %+v", len(rec.Schedule), rec)
			}
		}
	}
	if msRecords != 7 {
		t.Errorf("%d multislope records, want 7 (one decision opted back to constrained)", msRecords)
	}

	rep, err := VerifyAudit(strings.NewReader(audit.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Matched != len(recs) {
		t.Errorf("verify report %+v, want %d/%d matched:\n%s", rep, len(recs), len(recs), rep.String())
	}
}

// TestVerifyAuditDetectsEngineTampering covers the engine-specific
// corruption modes: a tampered schedule rung, a version-drifted
// record, and an engine name that no longer resolves must all be
// flagged as mismatches, never silently attested.
func TestVerifyAuditDetectsEngineTampering(t *testing.T) {
	audit := &syncBuffer{}
	s, err := New(Config{Areas: conformanceAreas(), AuditLog: audit, DefaultPolicy: "multislope3"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"v-1","area":"chicago"}`, nil); status != http.StatusOK {
		t.Fatal("decide failed")
	}
	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}
	rec := decodeAuditLines(t, audit.String())[0]
	if rec.Policy != policy.MultislopeEngine || len(rec.Schedule) != 2 {
		t.Fatalf("unexpected seed record: %+v", rec)
	}

	tamper := map[string]func(*AuditRecord){
		"schedule rung time":  func(r *AuditRecord) { r.Schedule[1].AtSec += 0.25 },
		"schedule rung state": func(r *AuditRecord) { r.Schedule[0].State = "warp_drive" },
		"schedule truncated":  func(r *AuditRecord) { r.Schedule = r.Schedule[:1] },
		"version drift":       func(r *AuditRecord) { r.PolicyVersion = 99 },
		"unknown engine":      func(r *AuditRecord) { r.Policy = "vanished" },
	}
	for name, mutate := range tamper {
		bad := rec
		bad.Schedule = append([]ScheduleAction(nil), rec.Schedule...)
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

// TestLegacyAuditRecordsReplay pins backward compatibility: records
// written before the engine extraction carry no policy fields and must
// replay as the constrained default.
func TestLegacyAuditRecordsReplay(t *testing.T) {
	eng, err := policy.Lookup(policy.DefaultEngine)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(policy.Stats{B: 28, Mu: 8, Q: 0.13})
	if err != nil {
		t.Fatal(err)
	}
	stream := requestStream("old", "chicago", 28)
	dec := prep.Decide(parallel.RNG(20140601, stream))
	rec := AuditRecord{
		TSUnixMS: 1, VehicleID: "old", Area: "chicago", StatsVersion: 1,
		B: 28, Mu: 8, Q: 0.13, Seed: 20140601, Stream: stream,
		Choice: dec.Choice, ThresholdSec: dec.ThresholdSec,
		// No Policy, PolicyVersion, or Schedule: the pre-engine format.
	}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(line, []byte("policy")) || bytes.Contains(line, []byte("schedule")) {
		t.Fatalf("legacy record grew engine fields: %s", line)
	}
	rep, err := VerifyAudit(bytes.NewReader(append(line, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Matched != 1 {
		t.Errorf("legacy record did not replay: %+v\n%s", rep, rep.String())
	}
}

// TestPolicyValidationTable is the wire contract for every way a
// policy request can be wrong: stable 4xx codes, never a 500.
func TestPolicyValidationTable(t *testing.T) {
	areas := append(conformanceAreas(),
		// Servable by the constrained default but below the three-state
		// instance's B > 10 requirement.
		AreaState{ID: "lowb", B: 9, Mu: 1, Q: 0.1})
	_, ts := newTestServerAreas(t, areas)

	cases := []struct {
		name     string
		body     string
		status   int
		code     string
		fragment string
	}{
		{"unknown engine", `{"vehicle_id":"v","area":"chicago","policy":"nope"}`,
			400, "unknown_policy", "unknown engine"},
		{"version pin mismatch", `{"vehicle_id":"v","area":"chicago","policy":"multislope3@v99"}`,
			400, "unknown_policy", "version mismatch"},
		{"malformed spec", `{"vehicle_id":"v","area":"chicago","policy":"bad name"}`,
			400, "bad_request", "malformed engine spec"},
		{"empty version", `{"vehicle_id":"v","area":"chicago","policy":"constrained@"}`,
			400, "bad_request", "malformed engine spec"},
		{"numeric-lead name", `{"vehicle_id":"v","area":"chicago","policy":"3slope"}`,
			400, "bad_request", "malformed engine spec"},
		{"multislope on low-B area", `{"vehicle_id":"v","area":"lowb","policy":"multislope3"}`,
			400, "invalid_policy_params", "cannot serve area"},
		{"multislope custom low B", `{"vehicle_id":"v","area":"chicago","b":9,"policy":"multislope3"}`,
			400, "invalid_policy_params", "cannot serve area"},
		{"constrained custom infeasible B", `{"vehicle_id":"v","area":"chicago","b":5}`,
			422, "invalid_stats", "infeasible"},
		{"unknown area still 404", `{"vehicle_id":"v","area":"mars","policy":"multislope3"}`,
			404, "unknown_area", "unknown area"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", tc.body, nil)
			if status != tc.status {
				t.Fatalf("status %d, want %d: %s", status, tc.status, raw)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("error body not structured: %s", raw)
			}
			if er.Error.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", er.Error.Code, tc.code, raw)
			}
			if !strings.Contains(er.Error.Message, tc.fragment) {
				t.Errorf("message %q lacks %q", er.Error.Message, tc.fragment)
			}
		})
	}

	// The same failures embed per-item in a batch without failing it.
	batch := `{"requests":[
		{"vehicle_id":"v","area":"chicago","policy":"multislope3"},
		{"vehicle_id":"v","area":"chicago","policy":"nope"},
		{"vehicle_id":"v","area":"lowb","policy":"multislope3"}]}`
	var resp BatchDecideResponse
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide/batch", batch, &resp); status != 200 {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if resp.Results[0].Decision == nil || resp.Results[0].Decision.Policy != "multislope3@v1" {
		t.Errorf("slot 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != "unknown_policy" {
		t.Errorf("slot 1: %+v", resp.Results[1])
	}
	if resp.Results[2].Error == nil || resp.Results[2].Error.Code != "invalid_policy_params" {
		t.Errorf("slot 2: %+v", resp.Results[2])
	}
}

// TestServeBootRejectsUnservableDefaultPolicy: a daemon whose default
// engine cannot serve its configured areas must fail at New, not 4xx
// at runtime.
func TestServeBootRejectsUnservableDefaultPolicy(t *testing.T) {
	areas := []AreaState{{ID: "lowb", B: 9, Mu: 1, Q: 0.1}}
	if _, err := New(Config{Areas: areas, DefaultPolicy: "multislope3"}); err == nil {
		t.Fatal("boot with an unservable default engine succeeded")
	}
	if _, err := New(Config{Areas: areas, DefaultPolicy: "nope"}); err == nil {
		t.Fatal("boot with an unknown default engine succeeded")
	}
	// The same areas boot fine under the constrained default.
	if _, err := New(Config{Areas: areas}); err != nil {
		t.Fatalf("constrained boot on low-B area failed: %v", err)
	}
}

// TestAreasPolicyView: GET /v1/areas?policy= renders the listing
// through another engine; areas that engine cannot serve report an
// error field without hiding the rest, and the default listing stays
// engine-free.
func TestAreasPolicyView(t *testing.T) {
	areas := append(testAreas(), AreaState{ID: "lowb", B: 9, Mu: 1, Q: 0.1})
	_, ts := newTestServerAreas(t, areas)

	var def AreasResponse
	if status, _ := doJSON(t, "GET", ts.URL+"/v1/areas", "", &def); status != 200 {
		t.Fatal("default listing failed")
	}
	for _, a := range def.Areas {
		if a.Policy != "" || a.Error != "" {
			t.Errorf("default listing leaked engine fields: %+v", a)
		}
	}

	var ms AreasResponse
	if status, raw := doJSON(t, "GET", ts.URL+"/v1/areas?policy=multislope3", "", &ms); status != 200 {
		t.Fatalf("multislope listing: %d %s", status, raw)
	}
	if len(ms.Areas) != len(areas) {
		t.Fatalf("multislope listing hid areas: %d of %d", len(ms.Areas), len(areas))
	}
	for _, a := range ms.Areas {
		if a.Policy != policy.MultislopeEngine {
			t.Errorf("area %s listed without policy name: %+v", a.ID, a)
		}
		if a.ID == "lowb" {
			if a.Error == "" || a.Choice != "" {
				t.Errorf("unservable area not reported as error: %+v", a)
			}
			continue
		}
		if a.Error != "" || !strings.HasPrefix(a.Choice, "MS:") {
			t.Errorf("servable area %s: %+v", a.ID, a)
		}
	}

	status, raw := doJSON(t, "GET", ts.URL+"/v1/areas?policy=nope", "", nil)
	if status != 400 || errCode(t, raw) != "unknown_policy" {
		t.Errorf("unknown policy listing: %d %s", status, raw)
	}
}

// TestPoliciesEndpoint: the engine listing carries every registered
// engine with its pinned spec and marks the daemon default.
func TestPoliciesEndpoint(t *testing.T) {
	s, err := New(Config{Areas: testAreas(), DefaultPolicy: "multislope3"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var resp PoliciesResponse
	if status, raw := doJSON(t, "GET", ts.URL+"/v1/policies", "", &resp); status != 200 {
		t.Fatalf("policies: %d %s", status, raw)
	}
	byName := map[string]PolicyInfo{}
	for _, p := range resp.Policies {
		byName[p.Name] = p
	}
	c, ok := byName[policy.DefaultEngine]
	if !ok || c.Spec != "constrained@v1" || c.Default {
		t.Errorf("constrained entry %+v", c)
	}
	m, ok := byName[policy.MultislopeEngine]
	if !ok || m.Spec != "multislope3@v1" || !m.Default || m.Doc == "" {
		t.Errorf("multislope entry %+v", m)
	}
}

// TestCacheEngineKeyIsolation: the engine dimension of the cache key —
// lazy non-default fill, isolation between engines, and invalidation
// by stats updates.
func TestCacheEngineKeyIsolation(t *testing.T) {
	c, err := NewCache(testAreas(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := policy.Lookup(policy.MultislopeEngine)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c.view("chicago")
	if !ok {
		t.Fatal("chicago missing")
	}
	def, _ := c.Get("chicago")
	first, err := c.StrategyParams(v, ms, nil)
	if err != nil {
		t.Fatalf("lazy multislope prepare: %v", err)
	}
	if first == def || first.Info().Choice == def.Info().Choice {
		t.Fatalf("engines share a cache entry: %+v vs %+v", first.Info(), def.Info())
	}
	v, _ = c.view("chicago")
	again, err := c.StrategyParams(v, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("second lookup re-prepared instead of hitting the cache")
	}
	// A stats update invalidates the lazily-cached engine entry.
	if _, err := c.Update("chicago", 0, testAreas()[0].Stats()); err != nil {
		t.Fatal(err)
	}
	v2, _ := c.view("chicago")
	if v2.rec == v.rec {
		t.Fatal("update did not swap the area record")
	}
	fresh, err := c.StrategyParams(v2, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == first {
		t.Error("post-update lookup returned the stale engine entry")
	}
	if fresh.rec.version != 2 {
		t.Errorf("rebuilt entry version %d, want 2", fresh.rec.version)
	}
}
