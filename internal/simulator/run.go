// Package simulator executes idling policies on concrete drive cycles
// and accounts their costs in real monetary units.
//
// The skirental package reasons in break-even-normalized units (idling
// costs 1 per second, a restart costs B). The simulator closes the loop
// back to the physical model of Section 2 and Appendix C: it draws each
// stop's threshold from the policy, plays the stop through
// skirental.Play, sums the outcomes in seconds, and prices the totals
// in cents with a costmodel.CostRatio once, at the end. A run's totals
// therefore equal skirental.TraceCost's on the same draws, and a
// ledger's forgetting-1 sums over them, bit for bit; the tests assert
// both.
package simulator

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"

	"idlereduce/internal/costmodel"
	"idlereduce/internal/obs"
	"idlereduce/internal/skirental"
)

// Config parameterizes a simulation run.
type Config struct {
	// Costs supplies the idling rate (cents/s) and restart cost (cents).
	// Its ratio B must match the policy's break-even interval to within
	// 1e-6; the run plays at the policy's B, and the rate prices its
	// totals in cents.
	Costs costmodel.CostRatio
	// Policy decides when the engine is shut off at each stop.
	Policy skirental.Policy
}

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("simulator: invalid config")

// thresholder is the part of skirental.Policy the run loop draws
// from. An advised run's thresholds hinge on each stop's forecast, so
// it has no closed-form mean cost and implements only this.
type thresholder interface {
	Name() string
	B() float64
	Threshold(rng *rand.Rand) float64
}

func (c Config) validate(pol thresholder) error {
	if pol == nil {
		return fmt.Errorf("%w: nil policy", ErrConfig)
	}
	rate, restart := c.Costs.IdlingCentsPerSec, c.Costs.RestartCents
	if !(rate > 0) || math.IsInf(rate, 1) || !(restart >= 0) || math.IsInf(restart, 1) {
		return fmt.Errorf("%w: costs %+v", ErrConfig, c.Costs)
	}
	b := c.Costs.B()
	if math.IsInf(b, 1) || !(math.Abs(b-pol.B()) <= 1e-6*b) {
		return fmt.Errorf("%w: cost ratio B=%v does not match policy B=%v", ErrConfig, b, pol.B())
	}
	return nil
}

// StopOutcome records one simulated stop: its length, the drawn
// threshold, and the stop as skirental.Play played it at the policy's
// B.
type StopOutcome struct {
	// Length is the stop length in seconds.
	Length float64
	// Threshold is the policy's drawn idling threshold.
	Threshold float64
	skirental.Stop
}

// Result aggregates a simulation run.
type Result struct {
	// Stops holds the per-stop outcomes, in input order.
	Stops []StopOutcome
	// OnlineSec and OfflineSec are the stops' eq. 3 and eq. 2 costs in
	// idle-second equivalents, summed left to right.
	OnlineSec  float64
	OfflineSec float64
	// OnlineCents and OfflineCents are OnlineSec and OfflineSec times
	// Config.Costs.IdlingCentsPerSec.
	OnlineCents  float64
	OfflineCents float64
	// IdleSec is total idling time; Restarts counts engine restarts.
	IdleSec  float64
	Restarts int
}

// CR returns the realized competitive ratio of the run (1 for a
// zero-cost cycle).
func (r *Result) CR() float64 {
	if r.OfflineSec == 0 {
		return 1
	}
	return r.OnlineSec / r.OfflineSec
}

// Run simulates the policy over the stop sequence. Randomized policies
// draw one threshold per stop from rng.
func Run(cfg Config, stops []float64, rng *rand.Rand) (*Result, error) {
	return RunContext(context.Background(), cfg, stops, rng)
}

// RunContext is Run with an observability sink: when ctx carries an
// obs.Recorder the run publishes per-stop outcomes (online/offline
// cents, idle time and drawn thresholds as histograms), engine
// transition counters, and a simulator.run span. Without a recorder
// the instrumentation reduces to a nil check per stop.
func RunContext(ctx context.Context, cfg Config, stops []float64, rng *rand.Rand) (*Result, error) {
	return run(ctx, cfg, cfg.Policy, stops, rng)
}

// run is RunContext drawing each stop's threshold from pol in place of
// cfg.Policy.
func run(ctx context.Context, cfg Config, pol thresholder, stops []float64, rng *rand.Rand) (*Result, error) {
	if err := cfg.validate(pol); err != nil {
		return nil, err
	}
	rec := obs.FromContext(ctx)
	if rec.On() {
		defer rec.StartSpan("simulator.run",
			slog.String("policy", pol.Name()),
			slog.Int("stops", len(stops)))()
	}
	rate := cfg.Costs.IdlingCentsPerSec
	b := pol.B()
	res := &Result{Stops: make([]StopOutcome, 0, len(stops))}
	for i, y := range stops {
		if y < 0 || math.IsNaN(y) {
			return nil, fmt.Errorf("%w: stop %d has length %v", ErrConfig, i, y)
		}
		x := pol.Threshold(rng)
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("simulator: policy %q drew invalid threshold %v", pol.Name(), x)
		}
		out := StopOutcome{Length: y, Threshold: x, Stop: skirental.Play(x, y, b)}
		res.OnlineSec += out.Online
		res.OfflineSec += out.Opt
		res.IdleSec += out.Idle
		if out.Restarted {
			res.Restarts++
		}
		res.Stops = append(res.Stops, out)
		if rec.On() {
			recordStop(rec, out, rate)
		}
	}
	res.OnlineCents = res.OnlineSec * rate
	res.OfflineCents = res.OfflineSec * rate
	if rec.On() {
		recordRun(rec, res)
	}
	return res, nil
}

// recordStop publishes one stop's outcome to the sink, its costs priced
// at the idling rate.
func recordStop(rec *obs.Recorder, out StopOutcome, rate float64) {
	rec.Add("sim_stops_total", 1)
	if out.Restarted {
		rec.Add("sim_engine_off_total", 1)
	} else {
		rec.Add("sim_drive_on_idling_total", 1)
	}
	rec.Observe("sim_stop_len_sec", out.Length)
	rec.Observe("sim_threshold_sec", out.Threshold)
	rec.Observe("sim_idle_sec", out.Idle)
	rec.Observe("sim_online_cents", out.Online*rate)
	rec.Observe("sim_offline_cents", out.Opt*rate)
}

// recordRun publishes run totals and the engine transition counts,
// which follow from the stop and restart counts: every stop begins
// idling, and every shut-off ends in a restart while every other stop
// drives on idling.
func recordRun(rec *obs.Recorder, res *Result) {
	n := int64(len(res.Stops))
	restarts := int64(res.Restarts)
	rec.Add(obs.L("sim_transition_total", "kind", "stop"), n)
	rec.Add(obs.L("sim_transition_total", "kind", "engine-off"), restarts)
	rec.Add(obs.L("sim_transition_total", "kind", "restart"), restarts)
	rec.Add(obs.L("sim_transition_total", "kind", "drive-on"), n-restarts)
	rec.Set("sim_last_run_cr", res.CR())
}
