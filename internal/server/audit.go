package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strings"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/ledger"
	"idlereduce/internal/obs"
	"idlereduce/internal/parallel"
	"idlereduce/internal/policy"
	"idlereduce/internal/skirental"
)

// AuditRecord is one line of the decision audit log: everything needed
// to re-derive the decision from scratch — the statistics the strategy
// was built from, the effective break-even interval, the policy engine
// and its version, and the RNG seed/stream pair — plus the decision
// itself. Because a decision is a pure function of (engine, b, mu, q,
// seed, stream), a recorded run can be replayed through the registered
// engine and checked bit-for-bit; see VerifyAudit.
type AuditRecord struct {
	// TSUnixMS is the decision wall-clock time (forensics only; replay
	// does not depend on it).
	TSUnixMS int64 `json:"ts_unix_ms"`
	// RequestID correlates the record with trace spans and the
	// X-Request-Id response header.
	RequestID string `json:"request_id,omitempty"`
	VehicleID string `json:"vehicle_id"`
	Area      string `json:"area"`
	// StatsVersion is the area's statistics version the decision was
	// served from (bumped by every PUT /v1/areas/{id}/stats).
	StatsVersion uint64 `json:"stats_version"`
	// B, Mu, Q are the policy inputs: the effective break-even
	// interval and the area's constrained pair (mu_B-, q_B+).
	B  float64 `json:"b"`
	Mu float64 `json:"mu"`
	Q  float64 `json:"q"`
	// Seed and Stream pin the threshold draw: the effective root seed
	// and the FNV-1a stream derived from (vehicle_id, area, b).
	Seed   uint64 `json:"seed"`
	Stream uint64 `json:"stream"`
	// Choice and ThresholdSec are the decision under audit.
	Choice       string  `json:"choice"`
	ThresholdSec float64 `json:"threshold_sec"`
	// Policy and PolicyVersion identify the engine that served the
	// decision. Empty/zero in records written before the engine
	// extraction; such records replay as the constrained default.
	Policy        string `json:"policy,omitempty"`
	PolicyVersion int    `json:"policy_version,omitempty"`
	// Schedule is the full action ladder of multi-state engines;
	// single-threshold decisions omit it.
	Schedule []ScheduleAction `json:"schedule,omitempty"`
	// Params are the resolved engine parameters the strategy was
	// prepared with; omitted for the default parameterization.
	Params map[string]float64 `json:"params,omitempty"`
	// Prediction is the request's forecast block, recorded verbatim so
	// an advised decision replays bit-identically through
	// DecideAdvised; omitted for prediction-free decisions.
	Prediction *PredictionBlock `json:"prediction,omitempty"`
	// DecisionID is the competitive-ratio ledger handle, recorded only
	// when the request opted into the ledger; `idlectl cr` joins it
	// against the settle records to rebuild the CR table forensically.
	DecisionID string `json:"decision_id,omitempty"`
	// CRBound is the serving strategy's published worst-case CR at
	// decision time (recorded with DecisionID; 0 = none published).
	CRBound float64 `json:"cr_bound,omitempty"`
}

// AppendJSON appends the bytes json.Marshal gives r (see
// obs.JSONAppender). The receiver is a value, as the sinks are handed
// records by value.
func (r AuditRecord) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.Int("ts_unix_ms", r.TSUnixMS)
	if r.RequestID != "" {
		o.String("request_id", r.RequestID)
	}
	o.String("vehicle_id", r.VehicleID)
	o.String("area", r.Area)
	o.Uint("stats_version", r.StatsVersion)
	o.Float("b", r.B)
	o.Float("mu", r.Mu)
	o.Float("q", r.Q)
	o.Uint("seed", r.Seed)
	o.Uint("stream", r.Stream)
	o.String("choice", r.Choice)
	o.Float("threshold_sec", r.ThresholdSec)
	if r.Policy != "" {
		o.String("policy", r.Policy)
	}
	if r.PolicyVersion != 0 {
		o.Int("policy_version", int64(r.PolicyVersion))
	}
	if len(r.Schedule) > 0 {
		o.Key("schedule")
		o.Raw(appendArray(o.Bytes(), r.Schedule))
	}
	if len(r.Params) > 0 {
		o.Key("params")
		o.Raw(appendParams(o.Bytes(), r.Params))
	}
	if r.Prediction != nil {
		o.Key("prediction")
		o.Raw(r.Prediction.AppendJSON(o.Bytes()))
	}
	if r.DecisionID != "" {
		o.String("decision_id", r.DecisionID)
	}
	if r.CRBound != 0 {
		o.Float("cr_bound", r.CRBound)
	}
	return o.End()
}

// appendParams appends engine params as json.Marshal writes the map:
// an object with its keys sorted.
func appendParams(dst []byte, params map[string]float64) ([]byte, error) {
	var stack [8]string
	keys := stack[:0]
	for k := range params {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	o := obs.NewJSONObject(dst)
	for _, k := range keys {
		o.Float(k, params[k])
	}
	return o.End()
}

// observeKind tags observe-stream audit records. Decide records carry
// no kind field (they predate the tag), so old logs keep verifying.
const observeKind = "observe"

// settleKind tags competitive-ratio ledger settle records.
const settleKind = "settle"

// SettleRecord is one line of the ledger audit stream: a decision
// joined to its realized stop. The realized cost pair is the paper's
// eq. 2–3 (skirental.Play) of the recorded (b, threshold, stop), so
// every record is independently re-derivable bit-for-bit — and the
// whole CR table can be rebuilt from the log alone (`idlectl cr`).
type SettleRecord struct {
	// Kind is always "settle".
	Kind     string `json:"kind"`
	TSUnixMS int64  `json:"ts_unix_ms"`
	// RequestID correlates with the observe that settled the decision;
	// DecisionID with the decide that issued it.
	RequestID  string `json:"request_id,omitempty"`
	DecisionID string `json:"decision_id"`
	// Area and Engine key the accumulator the outcome streamed into.
	Area   string `json:"area"`
	Engine string `json:"engine"`
	// B and ThresholdSec are the pending decision's inputs; StopSec the
	// realized stop length that settled it.
	B            float64 `json:"b"`
	ThresholdSec float64 `json:"threshold_sec"`
	StopSec      float64 `json:"stop_sec"`
	// OnlineCost and OptCost are the realized cost pair (replayed
	// through eq. 2–3 on verification).
	OnlineCost float64 `json:"online_cost"`
	OptCost    float64 `json:"opt_cost"`
	// Bound is the engine's published worst-case CR the outcome was
	// held against (0 = none); JoinMS the decide-to-observe latency.
	Bound  float64 `json:"bound,omitempty"`
	JoinMS int64   `json:"join_ms"`
	// Eq3 marks a cost pair charged under eq. 3, which pays the restart
	// once the stop reaches the threshold (y >= x). Records without it
	// predate that tie fix; they replay under the strict y > x rule they
	// were written with (strictOnlineCost), so old logs still verify.
	Eq3 bool `json:"eq3,omitempty"`
}

// AppendJSON appends the bytes json.Marshal gives r.
func (r SettleRecord) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.String("kind", r.Kind)
	o.Int("ts_unix_ms", r.TSUnixMS)
	if r.RequestID != "" {
		o.String("request_id", r.RequestID)
	}
	o.String("decision_id", r.DecisionID)
	o.String("area", r.Area)
	o.String("engine", r.Engine)
	o.Float("b", r.B)
	o.Float("threshold_sec", r.ThresholdSec)
	o.Float("stop_sec", r.StopSec)
	o.Float("online_cost", r.OnlineCost)
	o.Float("opt_cost", r.OptCost)
	if r.Bound != 0 {
		o.Float("bound", r.Bound)
	}
	o.Int("join_ms", r.JoinMS)
	if r.Eq3 {
		o.Bool("eq3", true)
	}
	return o.End()
}

// ObserveRecord is one line of the observation audit stream: the
// sufficient statistics BEFORE the observation, the observation, and
// the statistics AFTER it. The transition is the pure function
// adaptive.StepMoments, so every record is independently re-derivable
// bit-for-bit — and consecutive records of one area must chain (each
// record's prev sums equal the previous record's post sums), which
// VerifyAudit also checks. The CUSUM alarm flag is recorded evidence,
// not replayed (it depends on detector state across the whole stream).
type ObserveRecord struct {
	// Kind is always "observe"; its absence marks a decide record.
	Kind     string `json:"kind"`
	TSUnixMS int64  `json:"ts_unix_ms"`
	// RequestID correlates with trace spans; VehicleID is the optional
	// attribution from the request.
	RequestID string `json:"request_id,omitempty"`
	VehicleID string `json:"vehicle_id,omitempty"`
	Area      string `json:"area"`
	// Seq is the observation's 1-based position in the area's stream.
	// Seq 1 starts a fresh chain (boot, or the area's break-even
	// interval changed).
	Seq int64 `json:"seq"`
	// B and Forgetting are the transition parameters; StopSec the
	// observed stop length.
	B          float64 `json:"b"`
	Forgetting float64 `json:"forgetting"`
	StopSec    float64 `json:"stop_sec"`
	// PrevW/PrevMuSum/PrevQSum are the sufficient statistics before the
	// observation; W/MuSum/QSum after.
	PrevW     float64 `json:"prev_w"`
	PrevMuSum float64 `json:"prev_mu_sum"`
	PrevQSum  float64 `json:"prev_q_sum"`
	W         float64 `json:"w"`
	MuSum     float64 `json:"mu_sum"`
	QSum      float64 `json:"q_sum"`
	// Warm/Alarm/Retuned report the stream outcome; StatsVersion is the
	// area's statistics version after the observation (bumped when the
	// alarm re-derived the area's strategies).
	Warm         bool   `json:"warm"`
	Alarm        bool   `json:"alarm,omitempty"`
	Retuned      bool   `json:"retuned,omitempty"`
	StatsVersion uint64 `json:"stats_version"`
	// Mu and Q are the running estimates after the observation
	// (MuSum/W and QSum/W; denormalized for grep-ability and checked on
	// replay).
	Mu float64 `json:"mu"`
	Q  float64 `json:"q"`
}

// AppendJSON appends the bytes json.Marshal gives r.
func (r ObserveRecord) AppendJSON(dst []byte) ([]byte, error) {
	o := obs.NewJSONObject(dst)
	o.String("kind", r.Kind)
	o.Int("ts_unix_ms", r.TSUnixMS)
	if r.RequestID != "" {
		o.String("request_id", r.RequestID)
	}
	if r.VehicleID != "" {
		o.String("vehicle_id", r.VehicleID)
	}
	o.String("area", r.Area)
	o.Int("seq", r.Seq)
	o.Float("b", r.B)
	o.Float("forgetting", r.Forgetting)
	o.Float("stop_sec", r.StopSec)
	o.Float("prev_w", r.PrevW)
	o.Float("prev_mu_sum", r.PrevMuSum)
	o.Float("prev_q_sum", r.PrevQSum)
	o.Float("w", r.W)
	o.Float("mu_sum", r.MuSum)
	o.Float("q_sum", r.QSum)
	o.Bool("warm", r.Warm)
	if r.Alarm {
		o.Bool("alarm", true)
	}
	if r.Retuned {
		o.Bool("retuned", true)
	}
	o.Uint("stats_version", r.StatsVersion)
	o.Float("mu", r.Mu)
	o.Float("q", r.Q)
	return o.End()
}

// AuditVerifyReport summarizes one replay-verification pass.
type AuditVerifyReport struct {
	// Records counts decodable records; Matched of them replayed to a
	// bit-identical (choice, threshold) pair.
	Records    int `json:"records"`
	Matched    int `json:"matched"`
	Mismatched int `json:"mismatched"`
	// Corrupt counts undecodable lines with records after them (real
	// corruption, not a crash tail).
	Corrupt int `json:"corrupt"`
	// TruncatedTail reports a final partial line, the expected shape
	// of a crash or kill mid-write; it is skipped, not an error.
	TruncatedTail bool `json:"truncated_tail"`
	// Details carries the first few failure descriptions.
	Details []string `json:"details,omitempty"`
}

// OK reports whether every decodable record replayed identically.
func (r AuditVerifyReport) OK() bool { return r.Mismatched == 0 && r.Corrupt == 0 }

// String renders the operator summary.
func (r AuditVerifyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit verify: %d records, %d matched, %d mismatched, %d corrupt\n",
		r.Records, r.Matched, r.Mismatched, r.Corrupt)
	if r.TruncatedTail {
		fmt.Fprintf(&b, "  truncated final line skipped (crash-consistent tail)\n")
	}
	for _, d := range r.Details {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// maxVerifyDetails bounds the per-failure detail lines in the report.
const maxVerifyDetails = 10

// VerifyAudit replays every audit record through its recorded policy
// engine and compares the decision bit-for-bit: the stream derivation,
// the strategy selection, the threshold draw, and (for multi-state
// engines) every schedule rung must all reproduce. This turns engine
// determinism from a test property into an operator-checkable
// invariant over a recorded serving run, uniformly across engines.
// Records written by a different engine version than the registered
// one are reported as mismatches (version drift), not silently
// re-attested.
//
// A truncated final line (crash mid-append) is skipped and flagged;
// undecodable lines elsewhere count as corrupt. Only I/O failures
// return an error — verification failures are reported in the report.
func VerifyAudit(rd io.Reader) (AuditVerifyReport, error) {
	var rep AuditVerifyReport
	// lastObserve chains each area's observe records: a record whose seq
	// follows its predecessor must start from exactly the sums the
	// predecessor ended with.
	lastObserve := make(map[string]ObserveRecord)
	truncated, err := ReadAudit(rd, func(lineNo int, rec any) {
		var msg string
		switch r := rec.(type) {
		case AuditRecord:
			if msg = replayRecord(r); msg != "" {
				msg = fmt.Sprintf("line %d (%s/%s): %s", lineNo, r.VehicleID, r.Area, msg)
			}
		case ObserveRecord:
			if msg = replayObserveRecord(r, lastObserve); msg != "" {
				msg = fmt.Sprintf("line %d (observe %s#%d): %s", lineNo, r.Area, r.Seq, msg)
			}
			lastObserve[r.Area] = r
		case SettleRecord:
			if msg = replaySettleRecord(r); msg != "" {
				msg = fmt.Sprintf("line %d (settle %s): %s", lineNo, r.DecisionID, msg)
			}
		case BadLine:
			if r.Kind == "" {
				rep.Corrupt++
				rep.detail("line %d: undecodable record %.60q", lineNo, r.Text)
				return
			}
			msg = fmt.Sprintf("line %d: unknown record kind %q", lineNo, r.Kind)
		}
		rep.Records++
		if msg == "" {
			rep.Matched++
			return
		}
		rep.Mismatched++
		rep.detail("%s", msg)
	})
	if err != nil {
		return rep, fmt.Errorf("server: audit verify: %w", err)
	}
	rep.TruncatedTail = truncated
	return rep, nil
}

// BadLine is an audit-log line ReadAudit cannot hand over as a record:
// a well-formed line with an unknown Kind tag, or (Kind empty) the Text
// of an undecodable line that has records after it.
type BadLine struct {
	Kind string
	Text string
}

// ReadAudit is the one reader of the audit-log format, shared by
// VerifyAudit and `idlectl cr`. It decodes the log line by line and
// hands visit each line number with its record, dispatched on the kind
// tag: an AuditRecord (decide records predate the tag and carry none),
// an ObserveRecord, a SettleRecord, or a BadLine. An undecodable final
// line is the expected shape of a crash mid-append; it is not visited
// but reported by truncatedTail. Only I/O failures return an error.
func ReadAudit(rd io.Reader, visit func(lineNo int, rec any)) (truncatedTail bool, err error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var bad BadLine
	badNo, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if badNo > 0 {
			// The previous undecodable line was not the tail.
			visit(badNo, bad)
			badNo = 0
		}
		rec, err := decodeAuditLine([]byte(line))
		if err != nil {
			bad, badNo = BadLine{Text: line}, lineNo
			continue
		}
		visit(lineNo, rec)
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return badNo > 0, nil
}

// decodeAuditLine decodes one audit-log line into the record type its
// kind tag names.
func decodeAuditLine(line []byte) (any, error) {
	var tag struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(line, &tag); err != nil {
		return nil, err
	}
	switch tag.Kind {
	case "":
		return decodeAs[AuditRecord](line)
	case observeKind:
		return decodeAs[ObserveRecord](line)
	case settleKind:
		return decodeAs[SettleRecord](line)
	}
	return BadLine{Kind: tag.Kind}, nil
}

// decodeAs decodes one line as a T.
func decodeAs[T any](line []byte) (any, error) {
	var rec T
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// detail appends one bounded failure description.
func (r *AuditVerifyReport) detail(format string, args ...any) {
	if len(r.Details) < maxVerifyDetails {
		r.Details = append(r.Details, fmt.Sprintf(format, args...))
	}
}

// replayObserveRecord re-derives one observe transition; empty string
// means identical. last carries each area's previous observe record
// for the chain-continuity check.
func replayObserveRecord(rec ObserveRecord, last map[string]ObserveRecord) string {
	if rec.Area == "" {
		return "missing area"
	}
	if rec.Seq < 1 {
		return fmt.Sprintf("sequence %d is not positive", rec.Seq)
	}
	if rec.B <= 0 || math.IsNaN(rec.B) || math.IsInf(rec.B, 0) {
		return fmt.Sprintf("break-even interval %v is not positive finite", rec.B)
	}
	if rec.Forgetting <= 0 || rec.Forgetting > 1 || math.IsNaN(rec.Forgetting) {
		return fmt.Sprintf("forgetting %v outside (0, 1]", rec.Forgetting)
	}
	if rec.StopSec < 0 || math.IsNaN(rec.StopSec) || math.IsInf(rec.StopSec, 0) {
		return fmt.Sprintf("stop length %v is not finite non-negative", rec.StopSec)
	}
	for _, v := range []float64{rec.PrevW, rec.PrevMuSum, rec.PrevQSum} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("prior sums (%v, %v, %v) are not finite non-negative", rec.PrevW, rec.PrevMuSum, rec.PrevQSum)
		}
	}
	// The transition itself: the recorded successors must be exactly
	// what the pure step produces from the recorded priors.
	w2, mu2, q2 := adaptive.StepMoments(rec.PrevW, rec.PrevMuSum, rec.PrevQSum, rec.Forgetting, rec.B, rec.StopSec)
	if math.Float64bits(w2) != math.Float64bits(rec.W) ||
		math.Float64bits(mu2) != math.Float64bits(rec.MuSum) ||
		math.Float64bits(q2) != math.Float64bits(rec.QSum) {
		return fmt.Sprintf("sums (%v, %v, %v) replayed as (%v, %v, %v)",
			rec.W, rec.MuSum, rec.QSum, w2, mu2, q2)
	}
	// The denormalized estimates must be the recorded sums' quotients.
	if math.Float64bits(rec.Mu) != math.Float64bits(rec.MuSum/rec.W) ||
		math.Float64bits(rec.Q) != math.Float64bits(rec.QSum/rec.W) {
		return fmt.Sprintf("estimates (%v, %v) do not re-derive from sums (got %v, %v)",
			rec.Mu, rec.Q, rec.MuSum/rec.W, rec.QSum/rec.W)
	}
	if rec.Retuned && !rec.Alarm {
		return "retuned without an alarm"
	}
	if rec.Retuned && !rec.Warm {
		return "retuned before warmup"
	}
	// Chain continuity: when this record directly follows its area's
	// previous one (contiguous seq, same parameters), its priors must be
	// the predecessor's posteriors bit-for-bit. Seq 1 starts a fresh
	// chain; gaps (the bounded audit writer is lossy under pressure)
	// skip the check rather than fabricate one.
	prev, ok := last[rec.Area]
	if ok && rec.Seq == prev.Seq+1 && rec.B == prev.B && rec.Forgetting == prev.Forgetting {
		if math.Float64bits(rec.PrevW) != math.Float64bits(prev.W) ||
			math.Float64bits(rec.PrevMuSum) != math.Float64bits(prev.MuSum) ||
			math.Float64bits(rec.PrevQSum) != math.Float64bits(prev.QSum) {
			return fmt.Sprintf("chain break: priors (%v, %v, %v) but predecessor #%d ended at (%v, %v, %v)",
				rec.PrevW, rec.PrevMuSum, rec.PrevQSum, prev.Seq, prev.W, prev.MuSum, prev.QSum)
		}
		if rec.StatsVersion < prev.StatsVersion {
			return fmt.Sprintf("stats version %d regressed from %d", rec.StatsVersion, prev.StatsVersion)
		}
	}
	return ""
}

// replaySettleRecord re-derives one ledger settle; empty string means
// identical. The realized cost pair is a pure function of the recorded
// inputs, so replay needs no engine and no state.
func replaySettleRecord(rec SettleRecord) string {
	// The pending half must be an entry the ledger accepts.
	p := ledger.Pending{ID: rec.DecisionID, Area: rec.Area, Engine: rec.Engine,
		B: rec.B, ThresholdSec: rec.ThresholdSec, Bound: rec.Bound}
	if err := p.Validate(); err != nil {
		return err.Error()
	}
	if rec.StopSec < 0 || math.IsNaN(rec.StopSec) || math.IsInf(rec.StopSec, 0) {
		return fmt.Sprintf("stop length %v is not finite non-negative", rec.StopSec)
	}
	if rec.JoinMS < 0 {
		return fmt.Sprintf("join latency %d is negative", rec.JoinMS)
	}
	stop := skirental.Play(rec.ThresholdSec, rec.StopSec, rec.B)
	online, opt := stop.Online, stop.Opt
	if !rec.Eq3 {
		online = strictOnlineCost(rec.B, rec.ThresholdSec, rec.StopSec)
	}
	if math.Float64bits(online) != math.Float64bits(rec.OnlineCost) ||
		math.Float64bits(opt) != math.Float64bits(rec.OptCost) {
		return fmt.Sprintf("costs (%v, %v) replayed as (%v, %v)",
			rec.OnlineCost, rec.OptCost, online, opt)
	}
	return ""
}

// Engine resolves the engine that served the record: the registered
// engine of the recorded name ("" is the constrained default), refused
// when the record was written by another version of it.
func (rec AuditRecord) Engine() (policy.Engine, error) {
	eng, err := policy.Lookup(rec.Policy)
	if err != nil {
		return nil, fmt.Errorf("engine %q is not replayable: %w", rec.Policy, err)
	}
	if rec.PolicyVersion != 0 && rec.PolicyVersion != eng.Version() {
		return nil, fmt.Errorf("engine %s recorded at v%d, registered is v%d (version drift)",
			eng.Name(), rec.PolicyVersion, eng.Version())
	}
	return eng, nil
}

// strictOnlineCost is the online cost of settle records written before
// the Eq3 marker: the restart was charged only when the stop outlasted
// the threshold, so a stop ending exactly at it cost the threshold
// alone. It replays those records and nothing else.
func strictOnlineCost(b, threshold, stop float64) float64 {
	if stop > threshold {
		return threshold + b
	}
	return math.Min(stop, threshold)
}

// replayRecord re-derives one decision through the serving decision
// core; empty string means identical.
func replayRecord(rec AuditRecord) string {
	stream := requestStream(rec.VehicleID, rec.Area, rec.B)
	if stream != rec.Stream {
		return fmt.Sprintf("stream %d does not re-derive (got %d)", rec.Stream, stream)
	}
	eng, err := rec.Engine()
	if err != nil {
		return err.Error()
	}
	dec, _, _, apiErr := draw(eng, rec.Params, rec.Prediction, func(params map[string]float64) (policy.Strategy, *rand.Rand, *APIError) {
		prep, err := policy.Prepare(eng, policy.Stats{B: rec.B, Mu: rec.Mu, Q: rec.Q}, params)
		if err != nil {
			return nil, nil, &APIError{Code: "invalid_stats", Message: err.Error()}
		}
		return prep, parallel.RNG(rec.Seed, stream), nil
	})
	if apiErr != nil {
		return fmt.Sprintf("recorded decision rejected on replay (%s): %s", apiErr.Code, apiErr.Message)
	}
	if dec.Choice != rec.Choice {
		return fmt.Sprintf("choice %s replayed as %s", rec.Choice, dec.Choice)
	}
	if math.Float64bits(dec.ThresholdSec) != math.Float64bits(rec.ThresholdSec) {
		return fmt.Sprintf("threshold %v replayed as %v", rec.ThresholdSec, dec.ThresholdSec)
	}
	if len(dec.Schedule) != len(rec.Schedule) {
		return fmt.Sprintf("schedule of %d rungs replayed with %d", len(rec.Schedule), len(dec.Schedule))
	}
	for i, got := range dec.Schedule {
		want := rec.Schedule[i]
		if got.State != want.State || math.Float64bits(got.AtSec) != math.Float64bits(want.AtSec) {
			return fmt.Sprintf("schedule rung %d (%s at %v) replayed as %s at %v",
				i, want.State, want.AtSec, got.State, got.AtSec)
		}
	}
	return ""
}
