package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"idlereduce/internal/ledger"
	"idlereduce/internal/obs"
	"idlereduce/internal/parallel"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
	"idlereduce/internal/skirental"
)

// requestStream derives the deterministic RNG stream ID of one decide
// request from its identifying fields. Together with the root seed it
// makes every reply a pure function of (seed, vehicle_id, area, b):
// independent of scheduling, batch position and sibling requests.
func requestStream(vehicleID, area string, b float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(vehicleID))
	h.Write([]byte{0})
	h.Write([]byte(area))
	h.Write([]byte{0})
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
	h.Write(buf[:])
	return h.Sum64()
}

// policyLookupError maps a policy.Lookup failure onto the wire error
// contract: malformed specs are plain bad_request; well-formed specs
// naming no servable engine (unknown name, version pin mismatch) are
// unknown_policy. Both are client errors, never 5xx.
func policyLookupError(err error) *APIError {
	code := "unknown_policy"
	if errors.Is(err, policy.ErrBadSpec) {
		code = "bad_request"
	}
	return &APIError{Code: code, Message: err.Error(), Status: http.StatusBadRequest}
}

// draw is the decision core shared by Server.decide (single and batch)
// and audit replay. It resolves the raw engine params, decodes the
// prediction block, prepares the strategy and seeds its draw through
// prepare, then draws the decision: through DecideAdvised when a
// prediction is present, Decide otherwise. Params resolve before
// prepare runs, so every cache key carries validated, default-filled
// parameters. It returns the decision, the strategy that drew it and
// the resolved params (nil for the defaults). Failures are the wire
// errors decide sends, in decide's order of precedence.
func draw(eng policy.Engine, raw map[string]float64, block *PredictionBlock,
	prepare func(params map[string]float64) (policy.Strategy, *rand.Rand, *APIError),
) (policy.Decision, policy.Strategy, map[string]float64, *APIError) {
	var params map[string]float64
	if len(raw) > 0 {
		pe, ok := eng.(policy.Parametric)
		if !ok {
			return policy.Decision{}, nil, nil, &APIError{Code: "invalid_policy_params",
				Message: fmt.Sprintf("engine %s accepts no params", policy.Spec(eng)), Status: http.StatusBadRequest}
		}
		var err error
		if params, err = policy.ResolveParams(pe, raw); err != nil {
			return policy.Decision{}, nil, nil, &APIError{Code: "invalid_policy_params", Message: err.Error(), Status: http.StatusBadRequest}
		}
	}
	var pred predict.Prediction
	if block != nil {
		var err error
		if pred, err = block.toPrediction(); err != nil {
			return policy.Decision{}, nil, nil, &APIError{Code: "invalid_prediction", Message: err.Error(), Status: http.StatusBadRequest}
		}
	}
	prep, rng, apiErr := prepare(params)
	if apiErr != nil {
		return policy.Decision{}, nil, nil, apiErr
	}
	if block == nil {
		return prep.Decide(rng), prep, params, nil
	}
	adv, ok := prep.(policy.Advised)
	if !ok {
		return policy.Decision{}, nil, nil, &APIError{Code: "invalid_prediction",
			Message: fmt.Sprintf("engine %s does not accept predictions", policy.Spec(eng)), Status: http.StatusBadRequest}
	}
	return adv.DecideAdvised(rng, pred), prep, params, nil
}

// enginePrepareError maps an Engine.Prepare failure. The default
// constrained engine keeps the pre-engine wire shape (422
// invalid_stats); a request that opted into another engine gets 400
// invalid_policy_params — the area is servable, the requested engine's
// parameterization is not. Parameter-validation failures are
// invalid_policy_params regardless of engine.
func enginePrepareError(eng policy.Engine, area string, b float64, err error) *APIError {
	if errors.Is(err, policy.ErrBadParams) {
		return &APIError{Code: "invalid_policy_params", Message: err.Error(), Status: http.StatusBadRequest}
	}
	if eng.Name() == policy.DefaultEngine {
		return &APIError{Code: "invalid_stats", Message: fmt.Sprintf("area %s statistics are infeasible for b = %v: %v", area, b, err), Status: http.StatusUnprocessableEntity}
	}
	return &APIError{Code: "invalid_policy_params", Message: fmt.Sprintf("engine %s cannot serve area %s at b = %v: %v", policy.Spec(eng), area, b, err), Status: http.StatusBadRequest}
}

// wireSchedule converts an engine action ladder to the wire shape.
func wireSchedule(actions []policy.Action) []ScheduleAction {
	if len(actions) == 0 {
		return nil
	}
	out := make([]ScheduleAction, len(actions))
	for i, a := range actions {
		out[i] = ScheduleAction{State: a.State, AtSec: a.AtSec}
	}
	return out
}

// decide computes one decision. It returns the structured API error to
// send instead of an (error, status) pair so the batch path can embed
// failures per item. c carries the request id and the span the
// decision annotates (nil when tracing is off); with an audit log
// configured the decision is appended as a replayable AuditRecord.
// Both are gated on a nil check so the disabled path stays free.
//
// The serving engine is the daemon default unless the request names
// one; decisions from the default constrained engine keep the exact
// pre-engine wire bytes (no policy/schedule/explain fields).
func (s *Server) decide(c call, req DecideRequest, defaultSeed uint64) (*DecideResponse, *APIError) {
	if req.VehicleID == "" {
		return nil, &APIError{Code: "bad_request", Message: "vehicle_id is required", Status: http.StatusBadRequest}
	}
	if req.Area == "" {
		return nil, &APIError{Code: "bad_request", Message: "area is required", Status: http.StatusBadRequest}
	}
	if math.IsNaN(req.B) || math.IsInf(req.B, 0) || req.B < 0 {
		return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("b = %v must be a finite non-negative break-even interval", req.B), Status: http.StatusBadRequest}
	}
	eng := s.engine
	if req.Policy != "" {
		var err error
		if eng, err = policy.Lookup(req.Policy); err != nil {
			return nil, policyLookupError(err)
		}
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	// The area, break-even interval and stream are settled inside the
	// prepare step, so a bad param or prediction outranks unknown_area.
	// The area's view is loaded once: the strategy, the reply, the
	// ledger entry and the audit record all come from its record.
	var (
		rec    *areaRec
		b      float64
		cached bool
		stream uint64
		t0     time.Time
	)
	dec, prep, params, apiErr := draw(eng, req.Params, req.Prediction, func(params map[string]float64) (policy.Strategy, *rand.Rand, *APIError) {
		v, ok := s.cache.view(req.Area)
		if !ok {
			return nil, nil, &APIError{Code: "unknown_area", Message: fmt.Sprintf("unknown area %q", req.Area), Status: http.StatusNotFound}
		}
		rec = v.rec
		// Per-area latency attribution: the area record carries its
		// resolved series, so the hot path pays a clock read, never a
		// label format.
		t0 = time.Now()

		// Cache hit: the request uses the area's default break-even
		// interval, so the engine's strategy comes from the area's
		// view. A custom B prepares a fresh strategy from the same
		// statistics.
		b = req.B
		cached = b == 0 || b == rec.state.B
		var prep policy.Strategy
		var err error
		if cached {
			b = rec.state.B
			var entry *strategy
			if entry, err = s.cache.StrategyParams(v, eng, params); err == nil {
				prep = entry.prep
				s.series.cacheHits.get().Inc()
			}
		} else {
			s.series.cacheMisses.get().Inc()
			prep, err = policy.Prepare(eng, rec.state.PolicyStats(b), params)
		}
		if err != nil {
			return nil, nil, enginePrepareError(eng, rec.state.ID, b, err)
		}
		stream = requestStream(req.VehicleID, rec.state.ID, b)
		return prep, parallel.RNG(seed, stream), nil
	})
	if apiErr != nil {
		return nil, apiErr
	}
	if req.Prediction != nil {
		s.series.predictions.get().Inc()
	}

	if s.cfg.testHook != nil {
		s.cfg.testHook()
	}
	s.decideTotal.Get(dec.Choice).Inc()
	s.series.threshold.get().Observe(dec.ThresholdSec)
	rec.metrics.record(s.rec.Registry(), rec.state.ID, float64(time.Since(t0))/float64(time.Millisecond))
	sp := c.span
	if sp != nil {
		sp.SetString("area", rec.state.ID)
		sp.SetUint("stats_version", rec.version)
		sp.SetFloat("b", b)
		sp.SetString("choice", dec.Choice)
		sp.SetFloat("threshold_sec", dec.ThresholdSec)
		sp.SetUint("stream", stream)
		if eng.Name() != policy.DefaultEngine {
			sp.SetString("policy", policy.Spec(eng))
		}
	}
	// Ledger opt-in: mint a decision id and enter the decision into the
	// pending table so a later observe can settle it against the
	// realized stop. The bound travels with the entry (the ledger stays
	// policy-free); strategies that publish none enter with bound 0.
	var decisionID string
	var crBound float64
	if req.Ledger {
		if bd, ok := prep.(policy.Bounded); ok {
			crBound = bd.WorstCaseCRBound()
		}
		decisionID = s.newDecisionID()
		if _, err := s.ledger.Issue(ledger.Pending{
			ID:           decisionID,
			Area:         rec.state.ID,
			Engine:       policy.Spec(eng),
			Params:       params,
			B:            b,
			ThresholdSec: dec.ThresholdSec,
			Bound:        crBound,
			IssuedUnixMS: time.Now().UnixMilli(),
		}); err != nil {
			// Unreachable with minted ids and validated decisions; count
			// loudly rather than fail the decision if it ever happens.
			s.rec.Add("ledger_issue_failed_total", 1)
			decisionID = ""
		} else {
			s.series.ledgerIssued.get().Inc()
		}
	}
	if sp != nil && decisionID != "" {
		sp.SetString("decision_id", decisionID)
	}
	if s.auditW != nil {
		s.auditW.Write(AuditRecord{
			TSUnixMS:      time.Now().UnixMilli(),
			RequestID:     c.id,
			VehicleID:     req.VehicleID,
			Area:          rec.state.ID,
			StatsVersion:  rec.version,
			B:             b,
			Mu:            rec.state.Mu,
			Q:             rec.state.Q,
			Seed:          seed,
			Stream:        stream,
			Choice:        dec.Choice,
			ThresholdSec:  dec.ThresholdSec,
			Policy:        eng.Name(),
			PolicyVersion: eng.Version(),
			Schedule:      wireSchedule(dec.Schedule),
			Params:        params,
			Prediction:    req.Prediction,
			DecisionID:    decisionID,
			CRBound:       crBound,
		})
	}
	resp := &DecideResponse{
		VehicleID:     req.VehicleID,
		Area:          rec.state.ID,
		B:             b,
		Choice:        dec.Choice,
		ThresholdSec:  dec.ThresholdSec,
		WorstCaseCost: dec.WorstCaseCost,
		WorstCaseCR:   dec.WorstCaseCR,
		Seed:          seed,
		Cached:        cached,
	}
	if eng.Name() != policy.DefaultEngine {
		resp.Policy = policy.Spec(eng)
		resp.Schedule = wireSchedule(dec.Schedule)
		resp.Explain = prep.Explain()
	}
	resp.DecisionID = decisionID
	return resp, nil
}

// handleDecide serves POST /v1/decide.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request, c call) {
	var req DecideRequest
	if err := decodeRequest(s, "decide", r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	if r.Header.Get(ledgerHeader) != "" {
		req.Ledger = true
	}
	resp, apiErr := s.decide(c, req, s.cfg.RootSeed)
	if apiErr != nil {
		writeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /v1/decide/batch: the items are decided in
// input order, each under its own decide_item child span. Item failures
// are embedded per slot, so a batch reply is always 200 once it passes
// structural validation.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, c call) {
	var req BatchDecideRequest
	if err := decodeRequest(s, "batch", r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "requests is empty")
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("batch of %d exceeds max %d", len(req.Requests), s.cfg.MaxBatch))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.RootSeed
	}
	if r.Header.Get(ledgerHeader) != "" {
		for i := range req.Requests {
			req.Requests[i].Ledger = true
		}
	}
	results := make([]BatchItem, len(req.Requests))
	for i := range req.Requests {
		sp := c.span.Child("decide_item")
		sp.SetInt("index", int64(i))
		resp, apiErr := s.decide(call{id: c.id, span: sp}, req.Requests[i], seed)
		sp.End()
		if apiErr != nil {
			results[i] = BatchItem{Error: apiErr}
		} else {
			results[i] = BatchItem{Decision: resp}
		}
	}
	s.series.batchDecisions.get().Add(int64(len(results)))
	writeBatch(s, w, BatchDecideResponse{Seed: seed, Results: results}, results,
		func(e *APIError) BatchItem { return BatchItem{Error: e} })
}

// writeBatch writes reply, a batch reply holding items, with status 200.
// When reply cannot be encoded, each item that cannot (a number JSON
// cannot carry) becomes the internal item error mk builds, counted in
// http_encode_failed_total, and the other items are still delivered.
func writeBatch[T obs.JSONAppender](s *Server, w http.ResponseWriter, reply obs.JSONAppender, items []T, mk func(*APIError) T) {
	if sendJSON(w, http.StatusOK, reply) == nil {
		return
	}
	n := 0
	for i := range items {
		if _, err := items[i].AppendJSON(nil); err != nil {
			items[i] = mk(&APIError{Code: "internal", Message: "encode item: " + err.Error(), Status: http.StatusInternalServerError})
			n++
		}
	}
	s.series.encodeFailed.get().Add(int64(n))
	s.writeJSON(w, http.StatusOK, reply)
}

// handleStatsUpdate serves PUT /v1/areas/{id}/stats.
func (s *Server) handleStatsUpdate(w http.ResponseWriter, r *http.Request, _ call) {
	id := r.PathValue("id")
	var req StatsUpdateRequest
	if err := decodeStrict(http.MaxBytesReader(nil, r.Body, maxRequestBody), &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	entry, err := s.cache.Update(id, req.B, skirental.Stats{MuBMinus: req.Mu, QBPlus: req.Q})
	if err != nil {
		if _, ok := s.cache.Get(id); !ok {
			writeError(w, http.StatusNotFound, "unknown_area", err.Error())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "invalid_stats", err.Error())
		return
	}
	s.rec.Add("stats_updates_total", 1)
	s.writeJSON(w, http.StatusOK, entry.Info())
}

// handleAreas serves GET /v1/areas. An optional ?policy= query renders
// the listing through another engine; areas that engine cannot serve
// carry an error field instead of strategy fields, so one infeasible
// area never hides the rest.
func (s *Server) handleAreas(w http.ResponseWriter, r *http.Request, _ call) {
	eng := s.engine
	if spec := r.URL.Query().Get("policy"); spec != "" {
		var err error
		if eng, err = policy.Lookup(spec); err != nil {
			apiErr := policyLookupError(err)
			writeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
			return
		}
	}
	views := s.cache.views()
	resp := AreasResponse{Areas: make([]AreaInfo, 0, len(views))}
	for _, v := range views {
		st, err := s.cache.StrategyParams(v, eng, nil)
		if err != nil {
			resp.Areas = append(resp.Areas, AreaInfo{
				ID:      v.rec.state.ID,
				B:       v.rec.state.B,
				Mu:      v.rec.state.Mu,
				Q:       v.rec.state.Q,
				Version: v.rec.version,
				Policy:  eng.Name(),
				Error:   err.Error(),
			})
			continue
		}
		resp.Areas = append(resp.Areas, st.Info())
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handlePolicies serves GET /v1/policies: the registered policy
// engines, their pinned specs, and which one this daemon serves by
// default.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request, _ call) {
	names := policy.Names()
	resp := PoliciesResponse{Policies: make([]PolicyInfo, 0, len(names))}
	for _, n := range names {
		e, ok := policy.Get(n)
		if !ok {
			continue
		}
		info := PolicyInfo{
			Name:    n,
			Version: e.Version(),
			Spec:    policy.Spec(e),
			Doc:     e.Doc(),
			Default: n == s.engine.Name(),
		}
		if pe, ok := e.(policy.Parametric); ok {
			info.Params = pe.Params()
		}
		resp.Policies = append(resp.Policies, info)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz. It bypasses the in-flight limiter
// so liveness probes keep passing while decision load is shed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ call) {
	bi := readBuildInfo()
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Areas:       s.cache.Len(),
		Version:     bi.Version,
		GoVersion:   bi.GoVersion,
		StartUnixMS: s.start.UnixMilli(),
	})
}

// handleBuildInfo serves GET /v1/buildinfo: the serving binary's build
// provenance so dashboards and load reports can label runs.
func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request, _ call) {
	bi := readBuildInfo()
	s.writeJSON(w, http.StatusOK, BuildInfoResponse{
		Version:     bi.Version,
		GoVersion:   bi.GoVersion,
		Revision:    bi.Revision,
		VCSTime:     bi.VCSTime,
		VCSModified: bi.Modified,
		StartUnixMS: s.start.UnixMilli(),
		UptimeMS:    time.Since(s.start).Milliseconds(),
	})
}

// handleHistory serves GET /v1/history: the ring-buffer sampler's
// retained metrics window (windowed rates plus rolling quantiles). It
// bypasses the limiter so dashboards keep rendering under overload.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, _ call) {
	s.writeJSON(w, http.StatusOK, s.sampler.History())
}

// handleMetrics serves GET /metrics: the obs registry snapshot in
// Prometheus text format, or JSON with ?format=json. The bounded
// trace/audit writers are lossy by design; their drop counts are
// refreshed into gauges here so a scrape always sees them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ call) {
	if s.tracer != nil {
		s.rec.Set("trace_dropped_records", float64(s.tracer.Dropped()))
	}
	if s.auditW != nil {
		s.rec.Set("audit_dropped_records", float64(s.auditW.Dropped()))
	}
	// Ledger pending depth and TTL/capacity expiries happen off the
	// request paths; refresh them into gauges so a scrape always sees
	// the current join plane.
	s.rec.Set("ledger_pending", float64(s.ledger.PendingCount()))
	s.rec.Set("ledger_expired_total", float64(s.ledger.Counters().Expired))
	snap := s.rec.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		// WriteJSON encodes the whole snapshot before its one Write, so
		// a value JSON cannot carry leaves the header unsent.
		hw := &headerOnWrite{w: w, status: http.StatusOK}
		if err := snap.WriteJSON(hw); err != nil && !hw.sent {
			s.series.encodeFailed.get().Inc()
			writeError(w, http.StatusInternalServerError, "internal", "encode reply: "+err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_ = snap.WritePrometheus(w)
}

// handleNotFound is the structured-JSON fallthrough for unknown routes
// and wrong methods (the catch-all pattern shadows the mux's built-in
// 405, so method mismatches are re-derived here).
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request, _ call) {
	if methods := allowedMethods(r.URL.Path); len(methods) > 0 {
		w.Header().Set("Allow", strings.Join(methods, ", "))
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s %s not allowed (allow: %s)", r.Method, r.URL.Path, strings.Join(methods, ", ")))
		return
	}
	writeError(w, http.StatusNotFound, "not_found",
		fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
}

// allowedMethods returns the methods a known path serves; empty for
// unknown paths.
func allowedMethods(path string) []string {
	switch path {
	case "/v1/decide", "/v1/decide/batch", "/v1/observe", "/v1/observe/batch":
		return []string{http.MethodPost}
	case "/v1/areas", "/v1/policies", "/v1/cr", "/v1/history", "/v1/buildinfo", "/healthz", "/metrics":
		return []string{http.MethodGet}
	case "/v1/snapshot":
		return []string{http.MethodGet, http.MethodPost}
	}
	if strings.HasPrefix(path, "/v1/areas/") && strings.HasSuffix(path, "/stats") {
		return []string{http.MethodPut}
	}
	return nil
}
