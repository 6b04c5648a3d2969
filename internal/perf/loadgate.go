package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"idlereduce/internal/server"
)

// The loadtest gate: a fixed mixed decide/observe scenario over a
// large synthetic area set, measured in-process and compared against a
// committed LOADTEST_BASELINE.json. It extends the BENCH trajectory's
// micro-suites with a macro check — p99 under concurrency, cache
// hit-rate, and the retune loop actually firing — so scale regressions
// cannot land silently (the ROADMAP's million-vehicle gate).

// LoadScenario pins every knob of a gate run. The request stream,
// area set and observation values are all deterministic functions of
// these fields.
type LoadScenario struct {
	// Areas is the synthetic area count (the gate runs 100k).
	Areas int `json:"areas"`
	// Clients/Requests/Batch shape the request stream.
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	Batch    int `json:"batch"`
	// ObserveFraction is the share of observe batches; MissFraction the
	// share of custom-B decide slots (controlled cache misses).
	ObserveFraction float64 `json:"observe_fraction"`
	MissFraction    float64 `json:"miss_fraction"`
	// SettleFraction is the share of slots running the ledger join
	// (ledger-opted decide batch + settling observe batch, with a
	// deterministic sprinkle of orphaned ids).
	SettleFraction float64 `json:"settle_fraction"`
	// Seed is the decide root seed.
	Seed uint64 `json:"seed"`
}

// DefaultLoadScenario is the committed gate scenario: 100k areas,
// 40% observe traffic concentrated on 64 hot areas with a mid-run
// drift (so CUSUM re-tunes provably fire), a 5% controlled cache-miss
// rate, and a 25% share of slots running the competitive-ratio join
// (so the ledger's settle path is load-tested alongside everything
// else).
func DefaultLoadScenario() LoadScenario {
	return LoadScenario{
		Areas:           100_000,
		Clients:         8,
		Requests:        250,
		Batch:           16,
		ObserveFraction: 0.4,
		MissFraction:    0.05,
		SettleFraction:  0.25,
		Seed:            suiteSeed,
	}
}

// Validate rejects structurally unusable scenarios.
func (s LoadScenario) Validate() error {
	if s.Areas < 1 || s.Clients < 1 || s.Requests < 1 || s.Batch < 1 {
		return fmt.Errorf("perf: load scenario has non-positive dimensions: %+v", s)
	}
	if s.ObserveFraction < 0 || s.ObserveFraction >= 1 || s.MissFraction < 0 || s.MissFraction >= 1 ||
		s.SettleFraction < 0 || s.SettleFraction >= 1 {
		return fmt.Errorf("perf: load scenario fractions outside [0, 1): %+v", s)
	}
	return nil
}

// RunLoadScenario boots an in-process idled over the scenario's
// synthetic areas and drives the mixed load at it through a real HTTP
// listener, returning the client-side report.
func RunLoadScenario(ctx context.Context, scn LoadScenario) (server.LoadReport, error) {
	if err := scn.Validate(); err != nil {
		return server.LoadReport{}, err
	}
	areas := server.SyntheticAreaStates(scn.Areas, suiteB)
	srv, err := server.New(server.Config{
		Areas: areas,
		// The limiter must never shed the gate's own load: a 429 storm
		// would read as an error-rate change, not a latency signal.
		MaxInflight: scn.Clients * 4,
	})
	if err != nil {
		return server.LoadReport{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := make([]string, len(areas))
	for i, a := range areas {
		ids[i] = a.ID
	}
	return server.RunLoad(ctx, server.LoadOptions{
		BaseURL:         ts.URL,
		Clients:         scn.Clients,
		Requests:        scn.Requests,
		Batch:           scn.Batch,
		Seed:            scn.Seed,
		Areas:           ids,
		ObserveFraction: scn.ObserveFraction,
		MissFraction:    scn.MissFraction,
		SettleFraction:  scn.SettleFraction,
		Timeout:         2 * time.Minute,
		Transport:       &http.Transport{MaxIdleConnsPerHost: scn.Clients},
	})
}

// LoadBaseline is the committed LOADTEST_BASELINE.json: the scenario,
// the machine and speed canary it was measured on, and the gated
// metrics.
type LoadBaseline struct {
	SchemaVersion int     `json:"schema_version"`
	CreatedUnixMs int64   `json:"created_unix_ms"`
	Machine       Machine `json:"machine"`
	// CanaryNsPerOp normalizes latency across machine states, exactly
	// as BENCH compare does.
	CanaryNsPerOp float64      `json:"canary_ns_per_op"`
	Scenario      LoadScenario `json:"scenario"`
	// P99Ms is the overall per-batch p99; DecideP99Ms/ObserveP99Ms the
	// per-kind tails.
	P99Ms        float64 `json:"p99_ms"`
	DecideP99Ms  float64 `json:"decide_p99_ms"`
	ObserveP99Ms float64 `json:"observe_p99_ms"`
	// CacheHitRate is gated absolutely (it is noise-free by
	// construction: the miss schedule is deterministic).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Alarms/Retunes/DecisionQPS document the blessed run (QPS is
	// informational; alarms and retunes must stay nonzero).
	Alarms      int64   `json:"alarms"`
	Retunes     int64   `json:"retunes"`
	DecisionQPS float64 `json:"decision_qps"`
	// Settled/Orphans document the ledger-join leg of the blessed run;
	// both must stay nonzero while the scenario carries a settle
	// fraction (a run where settles stopped landing — or orphans
	// stopped being rejected — is a functional regression).
	Settled int64 `json:"settled"`
	Orphans int64 `json:"orphans"`
}

// NewLoadBaseline blesses a report as the committed baseline.
func NewLoadBaseline(scn LoadScenario, rep server.LoadReport) LoadBaseline {
	return LoadBaseline{
		SchemaVersion: SchemaVersion,
		CreatedUnixMs: time.Now().UnixMilli(),
		Machine:       CurrentMachine(),
		CanaryNsPerOp: MeasureCanary(),
		Scenario:      scn,
		P99Ms:         rep.P99,
		DecideP99Ms:   rep.DecideP99,
		ObserveP99Ms:  rep.ObserveP99,
		CacheHitRate:  rep.CacheHitRate,
		Alarms:        rep.Alarms,
		Retunes:       rep.Retunes,
		DecisionQPS:   rep.DecisionQPS,
		Settled:       rep.Settled,
		Orphans:       rep.Orphans,
	}
}

// Validate checks a baseline is usable as a gate reference.
func (b LoadBaseline) Validate() error {
	if b.SchemaVersion != SchemaVersion {
		return fmt.Errorf("%w: baseline has schema_version %d, this tool reads %d",
			ErrSchemaVersion, b.SchemaVersion, SchemaVersion)
	}
	if err := b.Scenario.Validate(); err != nil {
		return err
	}
	if b.P99Ms <= 0 || b.CacheHitRate <= 0 || b.CacheHitRate > 1 {
		return fmt.Errorf("perf: baseline has no usable measurements (p99 %v, hit-rate %v)", b.P99Ms, b.CacheHitRate)
	}
	return nil
}

// Write renders the baseline as indented JSON.
func (b LoadBaseline) Write(w io.Writer) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the baseline to path.
func (b LoadBaseline) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.Write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ReadLoadBaseline reads and validates the baseline at path.
func ReadLoadBaseline(path string) (LoadBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return LoadBaseline{}, err
	}
	var b LoadBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return LoadBaseline{}, fmt.Errorf("%s: decode baseline (corrupt or truncated): %w", path, err)
	}
	if err := b.Validate(); err != nil {
		return LoadBaseline{}, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// Gate tolerances. Latency under full-machine concurrency is far
// noisier than the min-of-N micro-suites, so the relative band is wide
// and an absolute floor keeps sub-millisecond baselines from gating on
// scheduler jitter; the hit-rate band is tight because the miss
// schedule is deterministic.
const (
	loadP99Tolerance  = 0.75 // +75% after canary normalization
	loadP99FloorMs    = 10.0 // absolute slack added to the allowance
	loadHitRateMargin = 0.02
)

// LoadGateResult is the verdict of one gate evaluation.
type LoadGateResult struct {
	OK bool `json:"ok"`
	// SpeedRatio is the canary normalization applied (head/base,
	// clamped; 0 when either side lacks a canary).
	SpeedRatio float64 `json:"speed_ratio,omitempty"`
	// Failures lists every violated check; Notes carries informational
	// lines (normalization, blessed-vs-measured context).
	Failures []string `json:"failures,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

// String renders the operator summary.
func (r LoadGateResult) String() string {
	var sb strings.Builder
	if r.OK {
		sb.WriteString("loadtest gate: PASS\n")
	} else {
		sb.WriteString("loadtest gate: FAIL\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "  %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&sb, "  FAIL: %s\n", f)
	}
	return sb.String()
}

// GateLoad evaluates a measured report against the committed baseline.
// headCanary is the head machine's MeasureCanary() reading taken
// alongside the run; pass 0 to skip normalization.
func GateLoad(base LoadBaseline, rep server.LoadReport, headCanary float64) LoadGateResult {
	res := LoadGateResult{OK: true}
	ratio := 1.0
	if base.CanaryNsPerOp > 0 && headCanary > 0 {
		ratio = math.Min(math.Max(headCanary/base.CanaryNsPerOp, 1/canaryClamp), canaryClamp)
		res.SpeedRatio = ratio
		res.Notes = append(res.Notes, fmt.Sprintf("speed canary: head machine state %.2fx base; latency allowances normalized", ratio))
	} else {
		res.Notes = append(res.Notes, "no speed canary on one side; latency allowances unnormalized")
	}
	fail := func(format string, args ...any) {
		res.OK = false
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	if rep.Errors > 0 {
		fail("%d request errors (gate runs must be error-free)", rep.Errors)
	}
	if rep.Overloaded > 0 {
		fail("%d load-shed replies (raise the in-process limiter)", rep.Overloaded)
	}
	allowed := base.P99Ms*ratio*(1+loadP99Tolerance) + loadP99FloorMs
	res.Notes = append(res.Notes, fmt.Sprintf("p99 %.2f ms (base %.2f, allowed %.2f)", rep.P99, base.P99Ms, allowed))
	if rep.P99 > allowed {
		fail("p99 %.2f ms exceeds allowance %.2f ms (base %.2f)", rep.P99, allowed, base.P99Ms)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("cache hit-rate %.4f (base %.4f, floor %.4f)",
		rep.CacheHitRate, base.CacheHitRate, base.CacheHitRate-loadHitRateMargin))
	if rep.CacheHitRate < base.CacheHitRate-loadHitRateMargin {
		fail("cache hit-rate %.4f below floor %.4f (base %.4f)",
			rep.CacheHitRate, base.CacheHitRate-loadHitRateMargin, base.CacheHitRate)
	}
	// The scenario's whole point is the closed loop: streamed
	// observations must drive CUSUM alarms and those alarms must
	// re-derive strategies. A run where that stopped happening is a
	// functional regression regardless of latency.
	if rep.Observations == 0 {
		fail("no observations accepted")
	}
	if base.Alarms > 0 && rep.Alarms == 0 {
		fail("no CUSUM alarms fired (baseline run had %d)", base.Alarms)
	}
	if base.Retunes > 0 && rep.Retunes == 0 {
		fail("no re-tunes performed (baseline run had %d)", base.Retunes)
	}
	// Same logic for the competitive-ratio join: settles must land and
	// the deliberately corrupted ids must keep being rejected.
	if base.Settled > 0 && rep.Settled == 0 {
		fail("no ledger settles joined (baseline run had %d)", base.Settled)
	}
	if base.Orphans > 0 && rep.Orphans == 0 {
		fail("no orphaned decision ids rejected (baseline run had %d)", base.Orphans)
	}
	return res
}
