package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/ledger"
	"idlereduce/internal/obs"
	"idlereduce/internal/predict"
)

// RetuneConfig parameterizes the server-side observation stream: how
// fast the per-area running statistics forget, how many observations
// they need before being trusted, and how sensitive the CUSUM drift
// detector is. The zero value takes every default.
type RetuneConfig struct {
	// Forgetting is the exponential decay per observation in (0, 1].
	// The serving default is 0.98 (a ~50-stop memory), so the
	// estimates keep tracking a drifted regime between alarms instead
	// of averaging it into unbounded history.
	Forgetting float64
	// MinObservations gates re-tunes: an alarm before this many stops
	// in an area's stream is counted but does not re-derive strategies.
	// Default 50.
	MinObservations int
	// DriftThreshold/DriftSlack/DriftWarmup forward to
	// adaptive.DriftConfig (CUSUM h, allowance k, baseline length).
	// Zero takes that config's defaults.
	DriftThreshold float64
	DriftSlack     float64
	DriftWarmup    int
	// Disabled suppresses strategy re-derivation: observations still
	// accumulate and alarms are still counted, but the cache is never
	// touched (a shadow-mode deployment switch).
	Disabled bool
}

func (c RetuneConfig) withDefaults() RetuneConfig {
	if c.Forgetting == 0 {
		c.Forgetting = 0.98
	}
	if c.MinObservations == 0 {
		c.MinObservations = 50
	}
	return c
}

// newStream starts an observation stream measured at break-even b.
func (c RetuneConfig) newStream(b float64) (*adaptive.Tracker, error) {
	c = c.withDefaults()
	return adaptive.NewTracker(adaptive.StreamConfig{
		B:               b,
		Forgetting:      c.Forgetting,
		MinObservations: c.MinObservations,
		Drift: adaptive.DriftConfig{
			Threshold: c.DriftThreshold,
			Slack:     c.DriftSlack,
			Warmup:    c.DriftWarmup,
		},
	})
}

// observe applies one validated observation to an area's stream and
// performs the re-tune when a warm CUSUM alarm fires. It returns the
// wire response; c carries the request id its audit records quote and
// the span the observation annotates: the request span of a single
// observe, nil for a batch item (the batch's request span carries
// roll-ups instead, so no item overwrites another's attributes).
func (s *Server) observe(c call, req ObserveRequest) (*ObserveResponse, *APIError) {
	if req.Area == "" {
		return nil, &APIError{Code: "bad_request", Message: "area is required", Status: http.StatusBadRequest}
	}
	if math.IsNaN(req.StopSec) || math.IsInf(req.StopSec, 0) || req.StopSec < 0 {
		return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("stop_sec = %v must be a finite non-negative stop length", req.StopSec), Status: http.StatusBadRequest}
	}
	if req.PredictedStopSec != nil {
		if err := predict.New(*req.PredictedStopSec).Validate(); err != nil {
			return nil, &APIError{Code: "invalid_prediction", Message: err.Error(), Status: http.StatusBadRequest}
		}
	}
	sl, ok := s.cache.slot(req.Area)
	if !ok {
		return nil, &APIError{Code: "unknown_area", Message: fmt.Sprintf("unknown area %q", req.Area), Status: http.StatusNotFound}
	}

	// The slot lock is held for the whole transition, so the record the
	// stream is measured against, the stream itself and a re-tune the
	// observation triggers form one step no stats update or snapshot
	// can split.
	sl.mu.Lock()
	defer sl.mu.Unlock()
	rec := sl.view.Load().rec
	// The stream starts at the area's first observe. A stats update may
	// have moved the area's break-even interval since the stream last
	// ran; the moments are only meaningful at one B, so the stream
	// restarts against the new interval.
	if sl.tr == nil || sl.tr.B() != rec.state.B {
		tr, err := s.cfg.Retune.newStream(rec.state.B)
		if err != nil {
			return nil, &APIError{Code: "internal", Message: err.Error(), Status: http.StatusInternalServerError}
		}
		sl.tr = tr
	}
	if !sl.tr.Admits(req.StopSec) {
		return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("stop_sec = %v overflows area %s's running statistics at b = %v", req.StopSec, rec.state.ID, rec.state.B), Status: http.StatusBadRequest}
	}

	// A decision id settles its ledger entry before the tracker absorbs
	// anything, so a failed join rejects the whole observation with the
	// statistics stream untouched (fail-closed).
	var settled *ledger.Outcome
	if req.DecisionID != "" {
		out, err := s.ledger.Settle(req.DecisionID, req.StopSec, time.Now().UnixMilli())
		switch {
		case errors.Is(err, ledger.ErrDuplicateSettle):
			return nil, &APIError{Code: "duplicate_settle", Message: err.Error(), Status: http.StatusConflict}
		case errors.Is(err, ledger.ErrUnknownDecision):
			s.rec.Add("ledger_orphaned_total", 1)
			return nil, &APIError{Code: "unknown_decision", Message: err.Error(), Status: http.StatusNotFound}
		case err != nil:
			// Stop validation already passed above; any residual failure
			// is a client-shaped bad request.
			return nil, &APIError{Code: "bad_request", Message: err.Error(), Status: http.StatusBadRequest}
		}
		settled = &out
		s.series.settled.get().Inc()
		s.series.joinMS.get().Observe(float64(out.JoinMS))
		s.crGauge("cr_empirical", out.Pending).Set(out.CR)
		if out.Pending.Bound > 0 {
			s.crGauge("cr_bound", out.Pending).Set(out.Pending.Bound)
		}
		if out.Breach {
			s.rec.Add("cr_breach_total", 1)
		}
	}

	up, err := sl.tr.Observe(req.StopSec)
	if err != nil {
		return nil, &APIError{Code: "bad_request", Message: err.Error(), Status: http.StatusBadRequest}
	}

	resp := &ObserveResponse{
		Area: rec.state.ID,
		Seq:  up.Seen,
		Warm: up.Warm,
		Mu:   up.Stats.MuBMinus,
		Q:    up.Stats.QBPlus,
		// The pre-observation version; overwritten on re-tune below.
		StatsVersion: rec.version,
	}
	if settled != nil {
		resp.Settled = true
		resp.OnlineCost = settled.Online
		resp.OptCost = settled.Opt
	}
	s.series.observes.get().Inc()
	// A forecast riding along closes the prediction loop: the completed
	// stop grades it into the quality histograms and side counters.
	if req.PredictedStopSec != nil {
		predict.RecordQuality(s.rec, rec.metrics.predictErr(s.rec.Registry(), rec.state.ID),
			rec.state.B, *req.PredictedStopSec, req.StopSec)
	}
	if up.Alarm {
		resp.Alarm = true
		s.series.alarms.get().Inc()
		if up.Warm && !s.cfg.Retune.Disabled {
			def, uerr := s.cache.updateLocked(sl, 0, up.Stats)
			if uerr != nil {
				// The estimates are feasible by construction, so a
				// rejection here is validation drift worth counting,
				// not a client error.
				s.rec.Add("retune_failed_total", 1)
			} else {
				resp.Retuned = true
				resp.StatsVersion = def.rec.version
				s.series.retunes.get().Inc()
			}
		}
	}

	if sp := c.span; sp != nil {
		sp.SetString("area", rec.state.ID)
		sp.SetInt("seq", up.Seen)
		sp.SetFloat("stop_sec", req.StopSec)
		sp.SetBool("alarm", resp.Alarm)
		sp.SetBool("retuned", resp.Retuned)
		sp.SetUint("stats_version", resp.StatsVersion)
		if settled != nil {
			sp.SetString("decision_id", settled.Pending.ID)
			sp.SetInt("join_ms", settled.JoinMS)
		}
	}
	if s.auditW != nil && settled != nil {
		// The settle record precedes the observe record, mirroring the
		// in-handler order: the join happened before the stream absorbed
		// the stop.
		s.auditW.Write(SettleRecord{
			Kind:         settleKind,
			TSUnixMS:     time.Now().UnixMilli(),
			RequestID:    c.id,
			DecisionID:   settled.Pending.ID,
			Area:         settled.Pending.Area,
			Engine:       settled.Pending.Engine,
			B:            settled.Pending.B,
			ThresholdSec: settled.Pending.ThresholdSec,
			StopSec:      req.StopSec,
			OnlineCost:   settled.Online,
			OptCost:      settled.Opt,
			Bound:        settled.Pending.Bound,
			JoinMS:       settled.JoinMS,
			Eq3:          true,
		})
	}
	if s.auditW != nil {
		s.auditW.Write(ObserveRecord{
			Kind:         observeKind,
			TSUnixMS:     time.Now().UnixMilli(),
			RequestID:    c.id,
			VehicleID:    req.VehicleID,
			Area:         rec.state.ID,
			Seq:          up.Seen,
			B:            rec.state.B,
			Forgetting:   s.cfg.Retune.Forgetting,
			StopSec:      req.StopSec,
			PrevW:        up.PrevWSum,
			PrevMuSum:    up.PrevMuSum,
			PrevQSum:     up.PrevQSum,
			W:            up.WSum,
			MuSum:        up.MuSum,
			QSum:         up.QSum,
			Warm:         up.Warm,
			Alarm:        resp.Alarm,
			Retuned:      resp.Retuned,
			StatsVersion: resp.StatsVersion,
			Mu:           up.Stats.MuBMinus,
			Q:            up.Stats.QBPlus,
		})
	}
	return resp, nil
}

// crKey names one settle gauge: cr_empirical or cr_bound of one
// {area, engine}.
type crKey struct {
	name, area, engine string
}

// crGauge returns the settle gauge name{area, engine} of p, formatting
// its name only the first time the pair settles.
func (s *Server) crGauge(name string, p ledger.Pending) *obs.Gauge {
	k := crKey{name, p.Area, p.Engine}
	s.crMu.Lock()
	defer s.crMu.Unlock()
	g := s.crGauges[k]
	if g == nil {
		g = s.rec.Registry().Gauge(obs.L(name, "area", p.Area, "engine", p.Engine))
		s.crGauges[k] = g
	}
	return g
}

// handleObserve serves POST /v1/observe.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request, c call) {
	var req ObserveRequest
	if err := decodeRequest(s, "observe", r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	resp, apiErr := s.observe(c, req)
	if apiErr != nil {
		writeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleObserveBatch serves POST /v1/observe/batch. Items apply
// strictly in input order — observations on one area form a sequential
// stream. Item failures are embedded per slot; a batch reply is
// always 200 once it passes structural validation.
func (s *Server) handleObserveBatch(w http.ResponseWriter, r *http.Request, c call) {
	var req BatchObserveRequest
	if err := decodeRequest(s, "observe_batch", r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "observations is empty")
		return
	}
	if len(req.Observations) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("batch of %d exceeds max %d", len(req.Observations), s.cfg.MaxBatch))
		return
	}
	resp := BatchObserveResponse{Results: make([]BatchObserveItem, len(req.Observations))}
	for i, o := range req.Observations {
		res, apiErr := s.observe(call{id: c.id}, o)
		if apiErr != nil {
			resp.Results[i] = BatchObserveItem{Error: apiErr}
			continue
		}
		resp.Results[i] = BatchObserveItem{Result: res}
		resp.Accepted++
		if res.Alarm {
			resp.Alarms++
		}
		if res.Retuned {
			resp.Retunes++
		}
		if res.Settled {
			resp.Settled++
		}
	}
	s.series.observeBatches.get().Inc()
	if sp := c.span; sp != nil {
		sp.SetInt("items", int64(len(req.Observations)))
		sp.SetInt("accepted", int64(resp.Accepted))
		sp.SetInt("alarms", int64(resp.Alarms))
		sp.SetInt("retunes", int64(resp.Retunes))
		sp.SetInt("settled", int64(resp.Settled))
	}
	writeBatch(s, w, resp, resp.Results,
		func(e *APIError) BatchObserveItem { return BatchObserveItem{Error: e} })
}
