package simulator

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"

	"idlereduce/internal/costmodel"
	"idlereduce/internal/numeric"
	"idlereduce/internal/obs"
	"idlereduce/internal/skirental"
)

// Config parameterizes a simulation run.
type Config struct {
	// Costs supplies the idling rate (cents/s) and restart cost (cents).
	// Its ratio B must match the policy's break-even interval.
	Costs costmodel.CostRatio
	// Policy decides when the engine is shut off at each stop.
	Policy skirental.Policy
	// DriveGapSec is the driving time inserted between stops on the
	// event timeline (cost-neutral; purely for realistic logs). Zero
	// uses a 60 s default.
	DriveGapSec float64
	// RecordEvents enables the per-transition event log.
	RecordEvents bool
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
	if c.Costs.IdlingCentsPerSec <= 0 || c.Costs.RestartCents < 0 {
		return fmt.Errorf("%w: costs %+v", ErrConfig, c.Costs)
	}
	b := c.Costs.B()
	if math.Abs(b-pol.B()) > 1e-6*b {
		return fmt.Errorf("%w: cost ratio B=%v does not match policy B=%v", ErrConfig, b, pol.B())
	}
	if c.DriveGapSec < 0 {
		return fmt.Errorf("%w: negative drive gap", ErrConfig)
	}
	return nil
}

// StopOutcome records one simulated stop.
type StopOutcome struct {
	// Length is the stop length in seconds.
	Length float64
	// Threshold is the policy's drawn idling threshold.
	Threshold float64
	// EngineOff reports whether the engine was shut off (and hence
	// restarted when driving on).
	EngineOff bool
	// IdleSec is the time spent idling during this stop.
	IdleSec float64
	// OnlineCents is the metered policy cost of the stop.
	OnlineCents float64
	// OfflineCents is the clairvoyant cost of the stop.
	OfflineCents float64
}

// Result aggregates a simulation run.
type Result struct {
	// Stops holds the per-stop outcomes, in input order.
	Stops []StopOutcome
	// Events is the transition log (when Config.RecordEvents).
	Events []*Event
	// OnlineCents and OfflineCents are metered totals.
	OnlineCents  float64
	OfflineCents float64
	// IdleSec is total idling time; Restarts counts engine restarts.
	IdleSec  float64
	Restarts int
	// DurationSec is the simulated wall-clock length of the cycle.
	DurationSec float64
}

// CR returns the realized competitive ratio of the run (1 for a
// zero-cost cycle).
func (r *Result) CR() float64 {
	if r.OfflineCents == 0 {
		return 1
	}
	return r.OnlineCents / r.OfflineCents
}

// FuelSavedCentsVsNEV returns the metered saving relative to never
// turning the engine off on the same stops.
func (r *Result) FuelSavedCentsVsNEV(c Config) float64 {
	var nev numeric.KahanSum
	for _, s := range r.Stops {
		nev.Add(s.Length * c.Costs.IdlingCentsPerSec)
	}
	return nev.Sum() - r.OnlineCents
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
	gap := cfg.DriveGapSec
	if gap == 0 {
		gap = 60
	}
	idleRate := cfg.Costs.IdlingCentsPerSec
	restart := cfg.Costs.RestartCents
	b := cfg.Costs.B()

	eng := &engine{state: Driving, record: cfg.RecordEvents}
	res := &Result{Stops: make([]StopOutcome, 0, len(stops))}
	var online, offline numeric.KahanSum

	for i, y := range stops {
		if y < 0 || math.IsNaN(y) {
			return nil, fmt.Errorf("%w: stop %d has length %v", ErrConfig, i, y)
		}
		eng.clock += gap
		eng.stop = i
		if err := eng.beginStop(); err != nil {
			return nil, err
		}
		x := pol.Threshold(rng)
		if x < 0 || math.IsNaN(x) {
			return nil, fmt.Errorf("simulator: policy %q drew invalid threshold %v", pol.Name(), x)
		}

		out := StopOutcome{Length: y, Threshold: x}
		if y < x {
			// Drove off before the threshold: pure idling.
			out.IdleSec = y
			eng.clock += y
			if _, err := eng.driveOn(); err != nil {
				return nil, err
			}
		} else {
			// Idled until the threshold, shut off, restarted on departure.
			out.IdleSec = x
			out.EngineOff = true
			eng.clock += x
			if err := eng.shutOff(); err != nil {
				return nil, err
			}
			eng.clock += y - x
			restarted, err := eng.driveOn()
			if err != nil {
				return nil, err
			}
			if !restarted {
				return nil, fmt.Errorf("simulator: engine reported no restart after shut-off")
			}
			res.Restarts++
		}
		out.OnlineCents = out.IdleSec * idleRate
		if out.EngineOff {
			out.OnlineCents += restart
		}
		out.OfflineCents = skirental.OfflineCost(y, b) * idleRate
		online.Add(out.OnlineCents)
		offline.Add(out.OfflineCents)
		res.IdleSec += out.IdleSec
		res.Stops = append(res.Stops, out)
		if rec.On() {
			recordStop(rec, out)
		}
	}
	res.OnlineCents = online.Sum()
	res.OfflineCents = offline.Sum()
	res.DurationSec = eng.clock
	res.Events = eng.events
	if rec.On() {
		recordRun(rec, res)
	}
	return res, nil
}

// recordStop publishes one stop's outcome to the sink.
func recordStop(rec *obs.Recorder, out StopOutcome) {
	rec.Add("sim_stops_total", 1)
	if out.EngineOff {
		rec.Add("sim_engine_off_total", 1)
	} else {
		rec.Add("sim_drive_on_idling_total", 1)
	}
	rec.Observe("sim_stop_len_sec", out.Length)
	rec.Observe("sim_threshold_sec", out.Threshold)
	rec.Observe("sim_idle_sec", out.IdleSec)
	rec.Observe("sim_online_cents", out.OnlineCents)
	rec.Observe("sim_offline_cents", out.OfflineCents)
}

// recordRun publishes run totals and the engine transition counts. The
// transition counts are derivable from the state machine's structure
// (every stop is Driving -> Idling, every shut-off is followed by a
// restart), so they stay correct whether or not the event log is on.
func recordRun(rec *obs.Recorder, res *Result) {
	n := int64(len(res.Stops))
	restarts := int64(res.Restarts)
	rec.Add(obs.L("sim_transition_total", "kind", EvStop.String()), n)
	rec.Add(obs.L("sim_transition_total", "kind", EvEngineOff.String()), restarts)
	rec.Add(obs.L("sim_transition_total", "kind", EvRestart.String()), restarts)
	rec.Add(obs.L("sim_transition_total", "kind", EvDriveOn.String()), n-restarts)
	rec.Set("sim_last_run_cr", res.CR())
	rec.Set("sim_last_run_duration_sec", res.DurationSec)
}

// CompareOnTrace runs several policies on the same stop sequence with
// independent but identically seeded randomness and returns the results
// keyed by policy name.
func CompareOnTrace(costs costmodel.CostRatio, policies []skirental.Policy, stops []float64, seed uint64) (map[string]*Result, error) {
	out := make(map[string]*Result, len(policies))
	for _, p := range policies {
		rng := rand.New(rand.NewPCG(seed, 0x5bf0_3635))
		res, err := Run(Config{Costs: costs, Policy: p}, stops, rng)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", p.Name(), err)
		}
		out[p.Name()] = res
	}
	return out, nil
}
