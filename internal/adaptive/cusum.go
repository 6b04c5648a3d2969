package adaptive

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"time"

	"idlereduce/internal/skirental"
)

// DriftConfig parameterizes the two-sided CUSUM drift detector.
type DriftConfig struct {
	// Threshold is the CUSUM alarm level h in standard deviations
	// (typical 5-10; default 8).
	Threshold float64
	// Slack is the allowance k subtracted per step (default 0.5): drifts
	// smaller than ~2k standard deviations are ignored.
	Slack float64
	// Warmup is the number of observations used to baseline the mean and
	// variance before monitoring starts (default 30).
	Warmup int
}

func (c *DriftConfig) fill() error {
	if c.Threshold == 0 {
		c.Threshold = 10
	}
	if c.Slack == 0 {
		c.Slack = 0.5
	}
	if c.Warmup == 0 {
		c.Warmup = 50
	}
	if !positiveFinite(c.Threshold) || !positiveFinite(c.Slack) || c.Warmup < 2 {
		return fmt.Errorf("%w: drift config %+v", ErrConfig, *c)
	}
	return nil
}

// Detector is a two-sided CUSUM on standardized observations. It
// baselines mean and variance during warmup, then accumulates positive
// and negative deviation sums; crossing the threshold signals a drift
// and re-baselines.
//
// The adaptive policy monitors the capped stop length min(y, B): the
// statistic whose distribution the vertex selection depends on. A long
// quiet commute turning into gridlock (or vice versa) trips the detector
// within tens of stops, much faster than exponential forgetting washes
// out the stale history.
type Detector struct {
	cfg DriftConfig

	n         int
	mean      float64
	m2        float64 // sum of squared deviations (Welford)
	baselineN int

	sPos, sNeg float64
	monitoring bool
}

// NewDetector builds a CUSUM detector.
func NewDetector(cfg DriftConfig) (*Detector, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Observe feeds one observation and reports whether a drift alarm fired.
// After an alarm the detector re-baselines automatically.
func (d *Detector) Observe(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	if !d.monitoring {
		// Welford baseline accumulation.
		d.n++
		delta := v - d.mean
		d.mean += delta / float64(d.n)
		d.m2 += delta * (v - d.mean)
		if d.n >= d.cfg.Warmup {
			d.monitoring = true
			d.baselineN = d.n
		}
		return false
	}
	sd := math.Sqrt(d.m2 / float64(d.n-1))
	if sd <= 1e-12 {
		sd = 1e-12
	}
	z := (v - d.mean) / sd
	d.sPos = math.Max(0, d.sPos+z-d.cfg.Slack)
	d.sNeg = math.Max(0, d.sNeg-z-d.cfg.Slack)
	if d.sPos > d.cfg.Threshold || d.sNeg > d.cfg.Threshold {
		d.reset()
		return true
	}
	// Keep refining the baseline: a frozen small-sample estimate biases
	// the standardized residuals and causes false alarms. The refinement
	// absorbs true drifts only slowly (the baseline already holds
	// Warmup+ observations), so detection speed is barely affected.
	d.n++
	delta := v - d.mean
	d.mean += delta / float64(d.n)
	d.m2 += delta * (v - d.mean)
	return false
}

// Monitoring reports whether the warmup baseline is complete.
func (d *Detector) Monitoring() bool { return d.monitoring }

// reset clears all state for a fresh baseline.
func (d *Detector) reset() {
	d.n, d.mean, d.m2 = 0, 0, 0
	d.sPos, d.sNeg = 0, 0
	d.monitoring = false
}

// WithDriftDetection wraps the adaptive policy with a CUSUM detector on
// the capped stop length: when a drift fires, the policy's statistics
// are reset (back to N-Rand warmup) so the new regime is learned from
// scratch instead of being averaged into stale history.
type DriftPolicy struct {
	*Policy
	det *Detector
	// Drifts counts alarms so far.
	Drifts int
}

// NewWithDriftDetection builds the drift-resetting adaptive policy.
func NewWithDriftDetection(cfg Config, drift DriftConfig) (*DriftPolicy, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	det, err := NewDetector(drift)
	if err != nil {
		return nil, err
	}
	return &DriftPolicy{Policy: p, det: det}, nil
}

// Instrument attaches the context's observability sink to the wrapped
// policy (CUSUM alarms are counted under adaptive_cusum_alarm_total,
// with the alarm time exposed as gauges and a structured event).
// Returns dp for chaining.
func (dp *DriftPolicy) Instrument(ctx context.Context) *DriftPolicy {
	dp.Policy.Instrument(ctx)
	return dp
}

// Observe records the stop, fires the detector, and resets the estimator
// on drift.
func (dp *DriftPolicy) Observe(y float64) error {
	if err := dp.Policy.Observe(y); err != nil {
		return err
	}
	capped := math.Min(y, dp.Policy.B())
	if dp.det.Observe(capped) {
		dp.Drifts++
		atStop := dp.Policy.seen
		rec := dp.Policy.rec
		// Restart estimation for the new regime, back to the N-Rand
		// warmup; the sink survives the regime reset.
		*dp.Policy = Policy{cfg: dp.Policy.cfg, warm: dp.Policy.warm, rec: rec}
		if rec.On() {
			rec.Add("adaptive_cusum_alarm_total", 1)
			rec.Set("adaptive_last_alarm_stop", float64(atStop))
			rec.Set("adaptive_last_alarm_unix_ms", float64(time.Now().UnixMilli()))
			rec.Event("adaptive.cusum_alarm",
				slog.Int("stop", atStop),
				slog.Int("alarms", dp.Drifts))
		}
	}
	return nil
}

// Run plays the drift-resetting policy over a stop sequence (decision
// before observation, as in Policy.Run).
func (dp *DriftPolicy) Run(stops []float64, rng *rand.Rand) (online, offline float64, err error) {
	return run(stops, func(y float64) (float64, float64) {
		s := skirental.Play(dp.Threshold(rng), y, dp.B())
		return s.Online, s.Opt
	}, dp.Observe)
}
