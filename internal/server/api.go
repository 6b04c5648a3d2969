package server

// Wire types of the idled HTTP API (see docs/SERVER.md). All request
// bodies are JSON with unknown fields rejected, so client typos surface
// as 400s instead of silently ignored options. The replies the serving
// paths write per request encode themselves (AppendJSON, pinned to
// json.Marshal's bytes); the cold listings stay on encoding/json.

import (
	"fmt"

	"idlereduce/internal/obs"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
)

// DecideRequest asks for one online idling decision: which vertex
// strategy to play for the next stop of the given vehicle, and the
// concrete shutoff threshold to use.
type DecideRequest struct {
	// VehicleID identifies the requesting vehicle. It seeds the
	// per-request randomness stream, so distinct vehicles draw
	// independent thresholds from randomized policies.
	VehicleID string `json:"vehicle_id"`
	// Area is the statistics area the vehicle is stopped in.
	Area string `json:"area"`
	// B optionally overrides the area's break-even interval (seconds).
	// Zero means "use the area default", which is the precomputed
	// cache-hit path.
	B float64 `json:"b,omitempty"`
	// Seed optionally overrides the server's root seed. Replies are a
	// pure function of (seed, vehicle_id, area, b) and the area's
	// current statistics.
	Seed uint64 `json:"seed,omitempty"`
	// Policy optionally selects the policy engine serving this request:
	// a registered engine name ("constrained", "multislope3"), with an
	// optional version pin ("multislope3@v1"). Empty uses the daemon's
	// default engine. Unknown engines are a 400 with code
	// unknown_policy; engines that cannot serve the area's statistics
	// are a 400 with code invalid_policy_params.
	Policy string `json:"policy,omitempty"`
	// Params optionally tunes the selected engine's declared parameters
	// (e.g. {"lambda": 0.25} for softml/distadvice). Unknown names and
	// out-of-range values are a 400 with code invalid_policy_params, as
	// are params sent to an engine that declares none. Parameters are
	// part of the strategy cache key, so differently-tuned requests
	// never share a prepared strategy.
	Params map[string]float64 `json:"params,omitempty"`
	// Prediction optionally attaches a stop-length forecast for
	// prediction-aware engines (softml, distadvice). Engines whose
	// strategies cannot consume predictions reject it with a 400
	// invalid_prediction, as do malformed blocks.
	Prediction *PredictionBlock `json:"prediction,omitempty"`
	// Ledger opts this decision into the competitive-ratio ledger: the
	// reply carries a decision_id, the decision enters the pending
	// table, and a later observe quoting the id settles it into the
	// empirical-CR accumulators (see docs/OBSERVABILITY.md). The
	// X-Ledger request header is an equivalent opt-in for clients that
	// cannot touch the body. Requests that do not opt in stay
	// byte-identical to the pre-ledger wire format.
	Ledger bool `json:"ledger,omitempty"`
}

// PredictionBlock is the wire form of one stop-length forecast.
type PredictionBlock struct {
	// PredictedStopSec is the forecast stop length in seconds (finite,
	// non-negative).
	PredictedStopSec float64 `json:"predicted_stop_s"`
	// Confidence optionally scales the engine's trust parameter for
	// this request in [0, 1]; omitted means full confidence.
	Confidence *float64 `json:"confidence,omitempty"`
	// M1/M2 are the optional predicted first and second moments of the
	// stop length (for the distadvice engine). Both or neither must be
	// present, finite, non-negative, with m2 >= m1^2.
	M1 *float64 `json:"m1,omitempty"`
	M2 *float64 `json:"m2,omitempty"`
}

// AppendJSON appends the bytes json.Marshal gives p.
func (p PredictionBlock) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.Float("predicted_stop_s", p.PredictedStopSec)
	if p.Confidence != nil {
		o.Float("confidence", *p.Confidence)
	}
	if p.M1 != nil {
		o.Float("m1", *p.M1)
	}
	if p.M2 != nil {
		o.Float("m2", *p.M2)
	}
	return o.End()
}

// toPrediction normalizes and validates the wire block. Errors wrap
// predict.ErrBadPrediction and map to the wire code invalid_prediction.
func (p *PredictionBlock) toPrediction() (predict.Prediction, error) {
	pr := predict.Prediction{StopSec: p.PredictedStopSec, Confidence: 1}
	if p.Confidence != nil {
		pr.Confidence = *p.Confidence
	}
	if (p.M1 == nil) != (p.M2 == nil) {
		return pr, fmt.Errorf("%w: moments m1 and m2 must be sent together", predict.ErrBadPrediction)
	}
	if p.M1 != nil {
		pr.M1, pr.M2, pr.HasMoments = *p.M1, *p.M2, true
	}
	return pr, pr.Validate()
}

// DecideResponse is the decision for one stop.
type DecideResponse struct {
	VehicleID string  `json:"vehicle_id"`
	Area      string  `json:"area"`
	B         float64 `json:"b"`
	// Choice is the selected vertex strategy (DET, TOI, b-DET, N-Rand).
	Choice string `json:"choice"`
	// ThresholdSec is the shutoff threshold for this stop: idle this
	// many seconds, then turn the engine off. Deterministic strategies
	// always return the same value; N-Rand draws from its density using
	// the per-request derived stream.
	ThresholdSec float64 `json:"threshold_sec"`
	// WorstCaseCost and WorstCaseCR are the guaranteed bounds of the
	// selected strategy over every distribution consistent with the
	// area statistics.
	WorstCaseCost float64 `json:"worst_case_cost"`
	WorstCaseCR   float64 `json:"worst_case_cr"`
	// Seed echoes the effective root seed used for the draw.
	Seed uint64 `json:"seed"`
	// Cached reports whether the decision came from the precomputed
	// per-area strategy cache (true) or was derived for a custom B
	// (false).
	Cached bool `json:"cached"`
	// Policy is the canonical engine spec ("name@vN") that produced the
	// decision. Omitted on the default constrained path, so replies
	// that do not opt into an engine are byte-identical to the
	// pre-engine wire format.
	Policy string `json:"policy,omitempty"`
	// Schedule is the multi-state action ladder for engines with more
	// than one controlled transition (e.g. multislope3 emits fuel_cut
	// then engine_off rungs). Single-threshold engines omit it;
	// ThresholdSec then carries the whole decision.
	Schedule []ScheduleAction `json:"schedule,omitempty"`
	// Explain is the engine's human-readable derivation record.
	// Omitted on the default path.
	Explain string `json:"explain,omitempty"`
	// DecisionID is the competitive-ratio ledger handle, minted only
	// when the request opted in (Ledger field or X-Ledger header).
	// Quote it in a later observe to settle the decision against its
	// realized stop length.
	DecisionID string `json:"decision_id,omitempty"`
}

// AppendJSON appends the bytes json.Marshal gives r (see
// obs.JSONAppender).
func (r DecideResponse) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.String("vehicle_id", r.VehicleID)
	o.String("area", r.Area)
	o.Float("b", r.B)
	o.String("choice", r.Choice)
	o.Float("threshold_sec", r.ThresholdSec)
	o.Float("worst_case_cost", r.WorstCaseCost)
	o.Float("worst_case_cr", r.WorstCaseCR)
	o.Uint("seed", r.Seed)
	o.Bool("cached", r.Cached)
	if r.Policy != "" {
		o.String("policy", r.Policy)
	}
	if len(r.Schedule) > 0 {
		o.Key("schedule")
		o.Raw(appendArray(o.Bytes(), r.Schedule))
	}
	if r.Explain != "" {
		o.String("explain", r.Explain)
	}
	if r.DecisionID != "" {
		o.String("decision_id", r.DecisionID)
	}
	return o.End()
}

// ScheduleAction is one rung of a multi-state decision ladder: enter
// State once the stop has lasted AtSec seconds.
type ScheduleAction struct {
	State string  `json:"state"`
	AtSec float64 `json:"at_sec"`
}

// AppendJSON appends the bytes json.Marshal gives a.
func (a ScheduleAction) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.String("state", a.State)
	o.Float("at_sec", a.AtSec)
	return o.End()
}

// appendArray appends items as json.Marshal writes a slice of them: a
// JSON array, or null for a nil slice.
func appendArray[T obs.JSONAppender](dst []byte, items []T) ([]byte, error) {
	if items == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = items[i].AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// BatchDecideRequest asks for one decision per item. Items are
// independent and decided in input order.
type BatchDecideRequest struct {
	// Seed is the default root seed for items that do not carry their
	// own. Zero falls back to the server root seed.
	Seed uint64 `json:"seed,omitempty"`
	// Requests are the individual decisions to make.
	Requests []DecideRequest `json:"requests"`
}

// BatchItem is one slot of a batch reply: exactly one of Decision or
// Error is set. Per-item failures never fail the whole batch.
type BatchItem struct {
	Decision *DecideResponse `json:"decision,omitempty"`
	Error    *APIError       `json:"error,omitempty"`
}

// AppendJSON appends the bytes json.Marshal gives it.
func (it BatchItem) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	if it.Decision != nil {
		o.Key("decision")
		o.Raw(it.Decision.AppendJSON(o.Bytes()))
	}
	if it.Error != nil {
		o.Key("error")
		o.Raw(it.Error.AppendJSON(o.Bytes()))
	}
	return o.End()
}

// BatchDecideResponse carries the order-preserving batch results.
type BatchDecideResponse struct {
	Seed    uint64      `json:"seed"`
	Results []BatchItem `json:"results"`
}

// AppendJSON appends the bytes json.Marshal gives r.
func (r BatchDecideResponse) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.Uint("seed", r.Seed)
	o.Key("results")
	o.Raw(appendArray(o.Bytes(), r.Results))
	return o.End()
}

// StatsUpdateRequest replaces one area's constrained statistics
// (PUT /v1/areas/{id}/stats). The pair must be feasible for the area's
// break-even interval: q in [0, 1], mu in [0, B(1-q)].
type StatsUpdateRequest struct {
	// B optionally updates the area's default break-even interval.
	// Zero keeps the current value.
	B float64 `json:"b,omitempty"`
	// Mu is mu_B-: the partial expectation of stops not longer than B.
	Mu float64 `json:"mu"`
	// Q is q_B+: the probability of a stop longer than B.
	Q float64 `json:"q"`
}

// AreaInfo describes one area's current cached strategy
// (GET /v1/areas and the reply to a stats update).
type AreaInfo struct {
	ID string  `json:"id"`
	B  float64 `json:"b"`
	Mu float64 `json:"mu"`
	Q  float64 `json:"q"`
	// Choice is the precomputed vertex selection for (B, mu, q).
	Choice string `json:"choice"`
	// ThresholdSec is the fixed threshold for deterministic choices;
	// -1 for N-Rand (the threshold is drawn per request).
	ThresholdSec  float64 `json:"threshold_sec"`
	WorstCaseCost float64 `json:"worst_case_cost"`
	WorstCaseCR   float64 `json:"worst_case_cr"`
	// Version counts statistics swaps since boot (starts at 1).
	Version uint64 `json:"version"`
	// Policy names the engine the listing was rendered for. Omitted
	// for the default constrained engine, so the default listing is
	// byte-identical to the pre-engine wire format.
	Policy string `json:"policy,omitempty"`
	// Error is set instead of the strategy fields when the selected
	// engine cannot serve this area's statistics (GET /v1/areas with a
	// ?policy= override only; the default listing never errors).
	Error string `json:"error,omitempty"`
}

// AreasResponse lists every configured area, sorted by ID.
type AreasResponse struct {
	Areas []AreaInfo `json:"areas"`
}

// PolicyInfo describes one registered policy engine
// (GET /v1/policies).
type PolicyInfo struct {
	// Name is the registry name; Spec is the canonical "name@vN" form
	// requests may pin.
	Name    string `json:"name"`
	Version int    `json:"version"`
	Spec    string `json:"spec"`
	Doc     string `json:"doc"`
	// Default marks the engine this daemon serves when a request does
	// not carry a policy field.
	Default bool `json:"default,omitempty"`
	// Params lists the engine's accepted tunable parameters (name, doc,
	// default, range). Omitted for engines that declare none.
	Params []policy.ParamSpec `json:"params,omitempty"`
}

// PoliciesResponse lists the registered policy engines, sorted by
// name.
type PoliciesResponse struct {
	Policies []PolicyInfo `json:"policies"`
}

// ObserveRequest streams one completed stop into an area's running
// statistics (POST /v1/observe). Unlike PUT /v1/areas/{id}/stats,
// which replaces the pair wholesale, observations accumulate into
// exponentially-weighted moments and feed the CUSUM drift detector; a
// drift alarm re-derives the area's strategies server-side.
type ObserveRequest struct {
	// Area is the statistics area the stop happened in.
	Area string `json:"area"`
	// StopSec is the completed stop's length in seconds.
	StopSec float64 `json:"stop_sec"`
	// VehicleID optionally attributes the observation (forensics only;
	// the stream is keyed by area).
	VehicleID string `json:"vehicle_id,omitempty"`
	// PredictedStopSec optionally carries the forecast that was made for
	// this stop; the completed length closes the loop, feeding the
	// prediction-quality metrics (error histograms, consistency/regret
	// counters). Malformed values are a 400 invalid_prediction.
	PredictedStopSec *float64 `json:"predicted_stop_s,omitempty"`
	// DecisionID optionally settles a ledger-tracked decision: StopSec
	// becomes the decision's realized stop length and the outcome
	// streams into the {area, engine} empirical-CR accumulator. An id
	// the ledger does not know is a 404 unknown_decision; an id that
	// already settled is a 409 duplicate_settle. Both reject the whole
	// observation (fail-closed: the stream absorbs nothing).
	DecisionID string `json:"decision_id,omitempty"`
}

// ObserveResponse reports the outcome of one streamed observation.
type ObserveResponse struct {
	Area string `json:"area"`
	// Seq is the observation's 1-based position in the area's stream
	// since boot (or since the area's break-even interval changed).
	Seq int64 `json:"seq"`
	// Warm reports whether the estimates have absorbed the configured
	// minimum observations; re-tunes are suppressed until then.
	Warm bool `json:"warm"`
	// Mu and Q are the area's running estimates after this observation.
	Mu float64 `json:"mu"`
	Q  float64 `json:"q"`
	// Alarm reports a CUSUM drift alarm on this observation; Retuned
	// reports that the alarm re-derived the area's cached strategies
	// from the running estimates.
	Alarm   bool `json:"alarm,omitempty"`
	Retuned bool `json:"retuned,omitempty"`
	// StatsVersion is the area's statistics version after this
	// observation (bumped when Retuned).
	StatsVersion uint64 `json:"stats_version"`
	// Settled reports the observation settled a ledger decision;
	// OnlineCost and OptCost are then the realized cost pair the
	// empirical CR accumulated (min(y,T)+B·1[y>T] and min(y,B)).
	Settled    bool    `json:"settled,omitempty"`
	OnlineCost float64 `json:"online_cost,omitempty"`
	OptCost    float64 `json:"opt_cost,omitempty"`
}

// AppendJSON appends the bytes json.Marshal gives r.
func (r ObserveResponse) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.String("area", r.Area)
	o.Int("seq", r.Seq)
	o.Bool("warm", r.Warm)
	o.Float("mu", r.Mu)
	o.Float("q", r.Q)
	if r.Alarm {
		o.Bool("alarm", true)
	}
	if r.Retuned {
		o.Bool("retuned", true)
	}
	o.Uint("stats_version", r.StatsVersion)
	if r.Settled {
		o.Bool("settled", true)
	}
	if r.OnlineCost != 0 {
		o.Float("online_cost", r.OnlineCost)
	}
	if r.OptCost != 0 {
		o.Float("opt_cost", r.OptCost)
	}
	return o.End()
}

// BatchObserveRequest streams several observations in one request.
// Items are applied strictly in input order (observations on one area
// form a sequential stream), so the reply is deterministic.
type BatchObserveRequest struct {
	Observations []ObserveRequest `json:"observations"`
}

// BatchObserveItem is one slot of a batch observe reply: exactly one
// of Result or Error is set.
type BatchObserveItem struct {
	Result *ObserveResponse `json:"result,omitempty"`
	Error  *APIError        `json:"error,omitempty"`
}

// AppendJSON appends the bytes json.Marshal gives it.
func (it BatchObserveItem) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	if it.Result != nil {
		o.Key("result")
		o.Raw(it.Result.AppendJSON(o.Bytes()))
	}
	if it.Error != nil {
		o.Key("error")
		o.Raw(it.Error.AppendJSON(o.Bytes()))
	}
	return o.End()
}

// BatchObserveResponse carries the order-preserving batch results plus
// roll-up counts so load generators don't re-scan items.
type BatchObserveResponse struct {
	Results []BatchObserveItem `json:"results"`
	// Accepted counts successful observations; Alarms and Retunes count
	// CUSUM alarms and strategy re-derivations inside the batch.
	Accepted int `json:"accepted"`
	Alarms   int `json:"alarms"`
	Retunes  int `json:"retunes"`
	// Settled counts ledger decisions the batch settled.
	Settled int `json:"settled,omitempty"`
}

// AppendJSON appends the bytes json.Marshal gives r.
func (r BatchObserveResponse) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.Key("results")
	o.Raw(appendArray(o.Bytes(), r.Results))
	o.Int("accepted", int64(r.Accepted))
	o.Int("alarms", int64(r.Alarms))
	o.Int("retunes", int64(r.Retunes))
	if r.Settled != 0 {
		o.Int("settled", int64(r.Settled))
	}
	return o.End()
}

// APIError is the structured error body every non-2xx reply carries:
//
//	{"error": {"code": "unknown_area", "message": "...", "status": 404}}
type APIError struct {
	// Code is a stable machine-readable identifier: bad_request,
	// invalid_stats, unknown_area, unknown_policy,
	// invalid_policy_params, invalid_prediction, unknown_decision,
	// duplicate_settle, not_found, method_not_allowed, overloaded,
	// too_large, internal.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// Status is the HTTP status the error was sent with.
	Status int `json:"status"`
}

// AppendJSON appends the bytes json.Marshal gives e.
func (e APIError) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.String("code", e.Code)
	o.String("message", e.Message)
	o.Int("status", int64(e.Status))
	return o.End()
}

// ErrorResponse wraps APIError as the JSON error envelope.
type ErrorResponse struct {
	Error APIError `json:"error"`
}

// AppendJSON appends the bytes json.Marshal gives r.
func (r ErrorResponse) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.Key("error")
	o.Raw(r.Error.AppendJSON(o.Bytes()))
	return o.End()
}

// HealthResponse is the GET /healthz body. Version labels let
// dashboards and load reports tag the run they measured.
type HealthResponse struct {
	Status   string `json:"status"`
	UptimeMS int64  `json:"uptime_ms"`
	Areas    int    `json:"areas"`
	// Version is the module version from debug.ReadBuildInfo
	// ("(devel)" for source builds, "unknown" outside a module).
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// StartUnixMS is the process start time.
	StartUnixMS int64 `json:"start_unix_ms"`
}

// BuildInfoResponse is the GET /v1/buildinfo body: the full build
// provenance of the serving binary plus its lifecycle timestamps.
type BuildInfoResponse struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// Revision/VCSTime/VCSModified carry the vcs.* build settings when
	// the binary was built from a checkout.
	Revision    string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	StartUnixMS int64  `json:"start_unix_ms"`
	UptimeMS    int64  `json:"uptime_ms"`
}
