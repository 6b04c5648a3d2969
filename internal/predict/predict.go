// Package predict holds the learning-augmented side of the decision
// stack: typed stop-length predictions, the advice rule of each
// learning-augmented engine, adversarial predictor models for the
// simulator's frontier sweep, and the prediction-quality metrics that
// /v1/observe publishes.
//
// The rules follow the learning-augmented ski-rental line of work
// referenced in PAPERS.md: Kodialam's soft-ML blend trades consistency
// (cost when the prediction is right) against robustness (the paper's
// worst-case guarantee when it is arbitrarily wrong) through a single
// trust parameter lambda in [0, 1]; Kim & Fan's distributional-advice
// variant consumes predicted distribution moments instead of a point
// forecast and is clamped against the constrained-vertex fallback the
// same way. A Rule is a pure function of the fallback draw its caller
// made, and at lambda = 0 it returns that draw unchanged, so the
// served softml@v1 and distadvice@v1 engines (internal/policy) degrade
// exactly to the DAC 2014 constrained vertex selection — the same RNG
// consumption and bit-identical thresholds — which keeps the audit log
// replayable.
package predict

import (
	"errors"
	"fmt"
	"math"

	"idlereduce/internal/skirental"
)

// ErrBadPrediction is the stable error class for malformed prediction
// inputs. The server maps it to the wire code invalid_prediction.
var ErrBadPrediction = errors.New("predict: invalid prediction")

// Prediction is one stop-length forecast attached to a decide request.
type Prediction struct {
	// StopSec is the predicted stop length in seconds.
	StopSec float64
	// Confidence scales the engine's trust parameter per request in
	// [0, 1]: the effective lambda is lambda * Confidence, so a
	// low-confidence forecast automatically leans on the robust
	// fallback. New fills 1.
	Confidence float64
	// M1 and M2 are the predicted first and second moments of the stop
	// length (E[Y] in seconds, E[Y^2] in seconds squared), present when
	// HasMoments. The distadvice engine consumes them; without moments
	// it treats the prediction as the degenerate distribution at
	// StopSec.
	M1, M2     float64
	HasMoments bool
}

// New builds a full-confidence point prediction.
func New(stopSec float64) Prediction {
	return Prediction{StopSec: stopSec, Confidence: 1}
}

// WithMoments builds a full-confidence distributional prediction.
func WithMoments(m1, m2 float64) Prediction {
	return Prediction{StopSec: m1, Confidence: 1, M1: m1, M2: m2, HasMoments: true}
}

// Validate checks the forecast is consumable: a non-negative stop
// length whose square is finite (the second moment a point forecast
// implies, so at most sqrt(MaxFloat64) ~ 1.34e154 s), confidence in
// [0, 1], and (when present) a feasible moment pair (finite,
// non-negative, M2 >= M1^2). Errors wrap ErrBadPrediction.
func (p Prediction) Validate() error {
	if math.IsNaN(p.StopSec) || math.IsInf(p.StopSec*p.StopSec, 0) || p.StopSec < 0 {
		return fmt.Errorf("%w: predicted stop length %v must be non-negative with a finite square", ErrBadPrediction, p.StopSec)
	}
	if math.IsNaN(p.Confidence) || p.Confidence < 0 || p.Confidence > 1 {
		return fmt.Errorf("%w: confidence %v outside [0, 1]", ErrBadPrediction, p.Confidence)
	}
	if p.HasMoments {
		if math.IsNaN(p.M1) || math.IsInf(p.M1, 0) || p.M1 < 0 {
			return fmt.Errorf("%w: first moment %v must be finite and non-negative", ErrBadPrediction, p.M1)
		}
		if math.IsNaN(p.M2) || math.IsInf(p.M2, 0) || p.M2 < 0 {
			return fmt.Errorf("%w: second moment %v must be finite and non-negative", ErrBadPrediction, p.M2)
		}
		if p.M2 < p.M1*p.M1 {
			return fmt.Errorf("%w: moment pair (%v, %v) has negative variance", ErrBadPrediction, p.M1, p.M2)
		}
	}
	return nil
}

// AdviceThreshold is the pure-consistency action for a point forecast:
// a predicted long stop (y >= b) shuts off immediately (threshold 0,
// cost b = OPT for a truly long stop); a predicted short stop never
// shuts off within the break-even window (threshold b, cost y = OPT
// for a truly short stop).
func AdviceThreshold(b, predictedSec float64) float64 {
	if predictedSec >= b {
		return 0
	}
	return b
}

// ProjectMoments maps a predicted moment pair (m1, m2) onto the
// paper's constrained statistics plane (mu_B-, q_B+) at break-even b,
// using the one-sided Chebyshev (Cantelli) tail bound as the
// representative tail mass:
//
//	m1 <  b: q = sigma^2 / (sigma^2 + (b - m1)^2)   (upper tail bound)
//	m1 >= b: q = (m1 - b)^2 / (sigma^2 + (m1 - b)^2) (1 - lower tail bound)
//
// with sigma^2 = m2 - m1^2. The short mass follows from the mean
// decomposition m1 >= mu + q*b, clamped into the feasible polytope
// mu in [0, b(1-q)]. A degenerate forecast (sigma = 0) projects to a
// point mass: q = 0 below b, q = 1 at or above it.
func ProjectMoments(b, m1, m2 float64) (mu, q float64) {
	sigma2 := m2 - m1*m1
	if sigma2 < 0 {
		sigma2 = 0
	}
	if m1 < b {
		d := b - m1
		if sigma2 == 0 {
			q = 0
		} else {
			q = sigma2 / (sigma2 + d*d)
		}
	} else {
		d := m1 - b
		if sigma2 == 0 {
			q = 1
		} else {
			q = d * d / (sigma2 + d*d)
		}
	}
	mu = m1 - q*b
	if mu < 0 {
		mu = 0
	}
	if muMax := b * (1 - q); mu > muMax {
		mu = muMax
	}
	return mu, q
}

// RepresentativeThreshold runs the paper's vertex selection on
// projected statistics and returns the deterministic threshold that
// represents the selected vertex: DET plays b, TOI plays 0, b-DET its
// optimal sqrt(mu*b/q), and N-Rand its density mean b/(e-1) (a fixed
// representative rather than a draw, so advice consumes no randomness
// and replay stays a pure function of the recorded inputs).
func RepresentativeThreshold(b, mu, q float64) (float64, skirental.Choice) {
	vc := skirental.ComputeVertexCosts(b, skirental.Stats{MuBMinus: mu, QBPlus: q})
	choice, _ := vc.Select()
	switch choice {
	case skirental.ChoiceTOI:
		return 0, choice
	case skirental.ChoiceBDet:
		return vc.BDetThreshold, choice
	case skirental.ChoiceNRand:
		return b / (math.E - 1), choice
	default:
		return b, choice
	}
}

// clamp bounds x to [lo, hi].
func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
