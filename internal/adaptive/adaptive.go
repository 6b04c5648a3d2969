// Package adaptive provides an online-learning wrapper around the
// paper's constrained policy: instead of assuming (mu_B-, q_B+) are
// known a priori, the policy estimates them from the stops it has seen
// and re-runs the vertex selection after every observation.
//
// This operationalizes how a production stop-start controller would
// deploy the paper's algorithm — the statistics are a per-vehicle,
// per-route property that drifts with traffic. An exponential
// forgetting factor trades steady-state accuracy against adaptation
// speed under regime changes (commute vs. weekend, summer vs. winter).
// During a cold-start warmup the policy plays N-Rand, whose e/(e-1)
// guarantee needs no statistics at all.
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"time"

	"idlereduce/internal/obs"
	"idlereduce/internal/skirental"
)

// Config parameterizes the adaptive policy.
type Config struct {
	// B is the break-even interval in seconds.
	B float64
	// Warmup is the number of observed stops before the estimates are
	// trusted; N-Rand is played until then. Default 10.
	Warmup int
	// Forgetting is the exponential decay applied to past observations
	// per new stop, in (0, 1]; 1 (default) keeps the plain running
	// average, smaller values adapt faster to drift.
	Forgetting float64
}

// ErrConfig reports an invalid configuration.
var ErrConfig = errors.New("adaptive: invalid config")

// positiveFinite reports whether x is a positive finite number. NaN
// fails it, where a bare x <= 0 test lets NaN through.
func positiveFinite(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

func (c *Config) fill() error {
	if !positiveFinite(c.B) {
		return fmt.Errorf("%w: B = %v", ErrConfig, c.B)
	}
	if c.Warmup == 0 {
		c.Warmup = 10
	}
	if c.Warmup < 0 {
		return fmt.Errorf("%w: warmup %d", ErrConfig, c.Warmup)
	}
	if c.Forgetting == 0 {
		c.Forgetting = 1
	}
	if !(c.Forgetting > 0 && c.Forgetting <= 1) {
		return fmt.Errorf("%w: forgetting %v", ErrConfig, c.Forgetting)
	}
	return nil
}

// Policy is the adaptive constrained policy. It satisfies
// skirental.Policy; call Observe with each completed stop's length to
// update the estimates.
type Policy struct {
	cfg Config

	// Exponentially-weighted sufficient statistics.
	wSum  float64 // total weight
	muSum float64 // weighted sum of y·1{y <= B}
	qSum  float64 // weighted count of 1{y > B}
	seen  int

	warm    *skirental.NRand
	current skirental.Policy // nil until warm

	// rec is the observability sink (nil-safe no-op by default).
	rec *obs.Recorder
}

// New builds an adaptive policy.
func New(cfg Config) (*Policy, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Policy{cfg: cfg, warm: skirental.NewNRand(cfg.B)}, nil
}

// Instrument attaches the context's observability sink: every re-tune
// is counted under adaptive_retune_total and vertex switches are
// counted per choice and logged as timestamped events. Returns p for
// chaining; without a recorder in ctx this is a no-op.
func (p *Policy) Instrument(ctx context.Context) *Policy {
	p.rec = obs.FromContext(ctx)
	return p
}

// Name implements skirental.Policy.
func (p *Policy) Name() string { return "Adaptive" }

// B implements skirental.Policy.
func (p *Policy) B() float64 { return p.cfg.B }

// Seen returns the number of observed stops.
func (p *Policy) Seen() int { return p.seen }

// Warm reports whether the warmup phase is over.
func (p *Policy) Warm() bool { return p.seen >= p.cfg.Warmup }

// Stats returns the current estimates (zero before any observation).
func (p *Policy) Stats() skirental.Stats { return momentStats(p.wSum, p.muSum, p.qSum) }

// Choice returns the currently selected vertex; N-Rand during warmup.
func (p *Policy) Choice() skirental.Choice {
	if c, ok := p.current.(*skirental.Constrained); ok {
		return c.Choice()
	}
	return skirental.ChoiceNRand
}

// active returns the policy to play for the next stop.
func (p *Policy) active() skirental.Policy {
	if p.Warm() && p.current != nil {
		return p.current
	}
	return p.warm
}

// Threshold implements skirental.Policy.
func (p *Policy) Threshold(rng *rand.Rand) float64 {
	return p.active().Threshold(rng)
}

// MeanCostForStop implements skirental.Policy (expectation under the
// currently active strategy).
func (p *Policy) MeanCostForStop(y float64) float64 {
	return p.active().MeanCostForStop(y)
}

// Observe records a completed stop of length y and re-selects the vertex.
// Invalid lengths are rejected.
func (p *Policy) Observe(y float64) error {
	if y < 0 || math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("%w: stop length %v", ErrConfig, y)
	}
	p.wSum, p.muSum, p.qSum = StepMoments(p.wSum, p.muSum, p.qSum, p.cfg.Forgetting, p.cfg.B, y)
	p.seen++
	if !p.Warm() {
		return nil
	}
	s := p.Stats()
	before := p.Choice()
	cons, err := skirental.NewConstrained(p.cfg.B, s)
	if err != nil {
		// Estimates are always feasible by construction; an error here
		// is a bug worth surfacing.
		return fmt.Errorf("adaptive: reselect: %w", err)
	}
	p.current = cons
	if p.rec.On() {
		p.rec.Add("adaptive_retune_total", 1)
		if after := cons.Choice(); after != before {
			p.rec.Add(obs.L("adaptive_switch_total", "to", after.String()), 1)
			p.rec.Set("adaptive_last_switch_stop", float64(p.seen))
			p.rec.Set("adaptive_last_switch_unix_ms", float64(time.Now().UnixMilli()))
			p.rec.Event("adaptive.switch",
				slog.Int("stop", p.seen),
				slog.String("from", before.String()),
				slog.String("to", after.String()),
				slog.Float64("mu_b_minus", s.MuBMinus),
				slog.Float64("q_b_plus", s.QBPlus))
		}
	}
	return nil
}

// Run plays the adaptive policy over a stop sequence, observing each
// stop after paying for it (the decision for stop i uses only stops
// < i). It returns the accumulated online and offline costs in
// break-even-normalized units.
func (p *Policy) Run(stops []float64, rng *rand.Rand) (online, offline float64, err error) {
	return run(stops, func(y float64) (float64, float64) {
		s := skirental.Play(p.Threshold(rng), y, p.cfg.B)
		return s.Online, s.Opt
	}, p.Observe)
}

// RunMean is Run with analytic per-stop expectations instead of sampled
// thresholds (no Monte Carlo noise); useful for evaluation.
func (p *Policy) RunMean(stops []float64) (online, offline float64, err error) {
	return run(stops, func(y float64) (float64, float64) {
		return p.MeanCostForStop(y), skirental.OfflineCost(y, p.cfg.B)
	}, p.Observe)
}

// run is the play loop of every Run variant: pay cost(y)'s online and
// offline costs for each stop, summed left to right, then observe it.
func run(stops []float64, cost func(y float64) (online, opt float64), observe func(y float64) error) (online, offline float64, err error) {
	for _, y := range stops {
		on, opt := cost(y)
		online += on
		offline += opt
		if err := observe(y); err != nil {
			return online, offline, err
		}
	}
	return online, offline, nil
}
