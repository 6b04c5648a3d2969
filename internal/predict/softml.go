package predict

import (
	"math"

	"idlereduce/internal/skirental"
)

// Advice is the outcome of consuming one prediction: the final
// threshold, whether the prediction actually moved it off the fallback
// draw, and the vertex the advice points at.
type Advice struct {
	// Threshold is the threshold to play for this stop, in [0, B].
	Threshold float64
	// Blended reports that the prediction was trusted (effective
	// lambda > 0); false means Threshold is exactly the fallback draw.
	Blended bool
	// Vertex is the vertex whose threshold the advice pulls toward: TOI
	// or DET for a point forecast of a long or short stop, the vertex
	// selected for the projected moments of a distributional one.
	Vertex skirental.Choice
}

// Kind selects an advice rule.
type Kind uint8

const (
	// KindSoftML is Kodialam's soft-ML blend: a convex blend of the
	// fallback draw with the pure-consistency threshold of a point
	// forecast (AdviceThreshold).
	KindSoftML Kind = iota
	// KindDistAdvice is Kim & Fan's distributional advice: the
	// predicted moments project onto the constrained statistics plane
	// (ProjectMoments), the paper's vertex selection picks the advice
	// threshold, and the result is clamped into the trust region
	// [xc - lambda*b, xc + lambda*b] around the fallback draw xc.
	KindDistAdvice
)

// String names the rule; the served engines label blended decisions
// with it ("SoftML[DET]").
func (k Kind) String() string {
	if k == KindDistAdvice {
		return "DistAdvice"
	}
	return "SoftML"
}

// Rule is one learning-augmented engine's advice rule at trust Lambda
// in [0, 1]: a pure function of the fallback draw the caller already
// made and the forecast, so it consumes no randomness. The effective
// trust of one forecast is Lambda * Confidence. At zero effective
// trust the rule returns the fallback draw itself, which is what keeps
// a served engine bit-identical to the constrained fallback at
// lambda = 0. Every threshold stays in Reach, so the closed-form
// robustness bound of that interval covers every forecast.
type Rule struct {
	Kind   Kind
	Lambda float64
}

// Advise returns the threshold to play at break-even b for fallback
// draw xc in [0, b] under forecast p. A distributional rule given a
// prediction without moments treats it as the degenerate distribution
// at its point forecast.
func (r Rule) Advise(b, xc float64, p Prediction) Advice {
	le := r.Lambda * p.Confidence
	if r.Kind == KindDistAdvice {
		m1, m2 := p.M1, p.M2
		if !p.HasMoments {
			m1, m2 = p.StopSec, p.StopSec*p.StopSec
		}
		mu, q := ProjectMoments(b, m1, m2)
		xadv, vertex := RepresentativeThreshold(b, mu, q)
		if le <= 0 {
			return Advice{Threshold: xc, Vertex: vertex}
		}
		x := clamp(xadv, xc-le*b, xc+le*b)
		return Advice{Threshold: clamp(x, 0, b), Blended: true, Vertex: vertex}
	}
	vertex := skirental.ChoiceDET
	if p.StopSec >= b {
		vertex = skirental.ChoiceTOI
	}
	if le <= 0 {
		return Advice{Threshold: xc, Vertex: vertex}
	}
	x := (1-le)*xc + le*AdviceThreshold(b, p.StopSec)
	return Advice{Threshold: clamp(x, 0, b), Blended: true, Vertex: vertex}
}

// Reach is the interval of thresholds the rule can play for fallback
// draw xc at break-even b, over every forecast, within [0, b]. softml
// blends toward the advice thresholds {0, b} with weight at most
// Lambda, so it reaches [(1-λ)xc, (1-λ)xc + λb]; distadvice reaches its
// whole trust region [xc - λb, xc + λb].
func (r Rule) Reach(xc, b float64) (lo, hi float64) {
	if r.Kind == KindDistAdvice {
		lo, hi = xc-r.Lambda*b, xc+r.Lambda*b
	} else {
		lo, hi = (1-r.Lambda)*xc, (1-r.Lambda)*xc+r.Lambda*b
	}
	return math.Max(lo, 0), math.Min(hi, b)
}
