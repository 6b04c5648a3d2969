package predict

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"idlereduce/internal/skirental"
)

func mustConstrained(t *testing.T, b, mu, q float64) *skirental.Constrained {
	t.Helper()
	c, err := skirental.NewConstrained(b, skirental.Stats{MuBMinus: mu, QBPlus: q})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPredictionValidate(t *testing.T) {
	good := []Prediction{
		New(0),
		New(300),
		{StopSec: 10, Confidence: 0.5},
		WithMoments(20, 500),
		WithMoments(0, 0),
		New(1e154),
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
	}
	bad := []Prediction{
		New(math.NaN()),
		New(math.Inf(1)),
		New(-1),
		{StopSec: 10, Confidence: 1.5},
		{StopSec: 10, Confidence: -0.1},
		{StopSec: 10, Confidence: math.NaN()},
		{StopSec: 10, Confidence: 1, M1: 20, M2: 100, HasMoments: true}, // var < 0
		{StopSec: 10, Confidence: 1, M1: math.NaN(), M2: 1, HasMoments: true},
		{StopSec: 10, Confidence: 1, M1: -1, M2: 10, HasMoments: true},
		{StopSec: 10, Confidence: 1, M1: 1, M2: math.Inf(1), HasMoments: true},
		New(1e155), // its square, the implied second moment, overflows
	}
	for _, p := range bad {
		err := p.Validate()
		if err == nil {
			t.Errorf("%+v accepted", p)
			continue
		}
		if !errors.Is(err, ErrBadPrediction) {
			t.Errorf("%+v error %v does not wrap ErrBadPrediction", p, err)
		}
	}
}

func TestAdviceThreshold(t *testing.T) {
	if got := AdviceThreshold(28, 300); got != 0 {
		t.Errorf("long stop advice %v, want 0", got)
	}
	if got := AdviceThreshold(28, 5); got != 28 {
		t.Errorf("short stop advice %v, want 28", got)
	}
	if got := AdviceThreshold(28, 28); got != 0 {
		t.Errorf("boundary advice %v, want 0 (>= B counts long)", got)
	}
}

// TestProjectMomentsFeasible: every projection must land in the
// paper's feasible polytope, and the degenerate cases must match the
// point-mass intuition.
func TestProjectMomentsFeasible(t *testing.T) {
	const b = 28.0
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 5000; i++ {
		m1 := rng.Float64() * 3 * b
		sigma := rng.Float64() * 2 * b
		m2 := m1*m1 + sigma*sigma
		mu, q := ProjectMoments(b, m1, m2)
		if q < 0 || q > 1 || math.IsNaN(q) {
			t.Fatalf("m1=%v m2=%v: q=%v", m1, m2, q)
		}
		if mu < 0 || mu > b*(1-q)+1e-12 || math.IsNaN(mu) {
			t.Fatalf("m1=%v m2=%v: mu=%v infeasible for q=%v", m1, m2, mu, q)
		}
		if _, err := skirental.NewConstrained(b, skirental.Stats{MuBMinus: mu, QBPlus: q}); err != nil {
			t.Fatalf("projection (%v, %v) rejected by the constrained policy: %v", mu, q, err)
		}
	}
	// Point mass below B: all mass short.
	if mu, q := ProjectMoments(b, 10, 100); q != 0 || mu != 10 {
		t.Errorf("point mass at 10: mu=%v q=%v", mu, q)
	}
	// Point mass above B: all mass long.
	if mu, q := ProjectMoments(b, 100, 10000); q != 1 || mu != 0 {
		t.Errorf("point mass at 100: mu=%v q=%v", mu, q)
	}
}

func TestRepresentativeThreshold(t *testing.T) {
	const b = 28.0
	// All mass long: TOI (shut off immediately).
	if x, c := RepresentativeThreshold(b, 0, 1); x != 0 || c != skirental.ChoiceTOI {
		t.Errorf("long mass: x=%v choice=%v", x, c)
	}
	// All mass short with high mu: DET never beats riding it out; the
	// representative threshold is in [0, b] regardless of vertex.
	for _, tc := range []struct{ mu, q float64 }{{20, 0}, {8, 0.13}, {4, 0.25}, {0, 0.5}} {
		x, _ := RepresentativeThreshold(b, tc.mu, tc.q)
		if x < 0 || x > b || math.IsNaN(x) {
			t.Errorf("mu=%v q=%v: threshold %v outside [0, B]", tc.mu, tc.q, x)
		}
	}
}

// TestSoftMLZeroLambdaIsFallback is the robustness-extreme identity:
// at lambda = 0 (or confidence 0) the advised threshold is the
// fallback draw itself, bit for bit.
func TestSoftMLZeroLambdaIsFallback(t *testing.T) {
	c := mustConstrained(t, 28, 4, 0.25) // N-Rand region: draws are random
	sm := Rule{Kind: KindSoftML}
	for seed := uint64(1); seed < 50; seed++ {
		xc := c.Threshold(rand.New(rand.NewPCG(seed, 1)))
		adv := sm.Advise(28, xc, New(500))
		if adv.Blended || math.Float64bits(adv.Threshold) != math.Float64bits(xc) {
			t.Fatalf("seed %d: advised %v (blended=%v), fallback %v", seed, adv.Threshold, adv.Blended, xc)
		}
	}
	// Same identity through per-request confidence 0 at lambda 1.
	sm1 := Rule{Kind: KindSoftML, Lambda: 1}
	xc := c.Threshold(rand.New(rand.NewPCG(9, 1)))
	if adv := sm1.Advise(28, xc, Prediction{StopSec: 500, Confidence: 0}); adv.Blended || adv.Threshold != xc {
		t.Fatalf("confidence 0 blended: %+v", adv)
	}
}

// TestSoftMLFullTrustFollowsAdvice: lambda = 1 with full confidence
// plays the pure advice threshold.
func TestSoftMLFullTrustFollowsAdvice(t *testing.T) {
	sm := Rule{Kind: KindSoftML, Lambda: 1}
	if adv := sm.Advise(28, 28, New(400)); adv.Threshold != 0 || !adv.Blended || adv.Vertex != skirental.ChoiceTOI {
		t.Errorf("long forecast: %+v", adv)
	}
	if adv := sm.Advise(28, 28, New(3)); adv.Threshold != 28 || adv.Vertex != skirental.ChoiceDET {
		t.Errorf("short forecast: %+v", adv)
	}
}

// TestSoftMLBlendStaysBounded: every blended threshold lands in
// [0, B] so WorstCaseDetCost always applies.
func TestSoftMLBlendStaysBounded(t *testing.T) {
	c := mustConstrained(t, 28, 4, 0.25)
	rng := rand.New(rand.NewPCG(11, 4))
	for _, lambda := range []float64{0.1, 0.5, 0.9} {
		sm := Rule{Kind: KindSoftML, Lambda: lambda}
		for i := 0; i < 500; i++ {
			p := Prediction{StopSec: rng.Float64() * 600, Confidence: rng.Float64()}
			adv := sm.Advise(28, c.Threshold(rng), p)
			if adv.Threshold < 0 || adv.Threshold > 28 || math.IsNaN(adv.Threshold) {
				t.Fatalf("lambda=%v %+v -> threshold %v", lambda, p, adv.Threshold)
			}
		}
	}
}

// TestDistAdviceZeroLambdaIsFallback mirrors the SoftML identity for
// the distributional rule.
func TestDistAdviceZeroLambdaIsFallback(t *testing.T) {
	c := mustConstrained(t, 28, 4, 0.25)
	da := Rule{Kind: KindDistAdvice}
	for seed := uint64(1); seed < 50; seed++ {
		xc := c.Threshold(rand.New(rand.NewPCG(seed, 2)))
		adv := da.Advise(28, xc, WithMoments(120, 20000))
		if adv.Blended || math.Float64bits(adv.Threshold) != math.Float64bits(xc) {
			t.Fatalf("seed %d: advised %v, fallback %v", seed, adv.Threshold, xc)
		}
	}
}

// TestDistAdviceTrustRegion: the advice threshold is clamped within
// lambda*B of the fallback draw.
func TestDistAdviceTrustRegion(t *testing.T) {
	c := mustConstrained(t, 28, 8, 0.13) // deterministic fallback
	xc := c.Threshold(rand.New(rand.NewPCG(5, 5)))
	for _, lambda := range []float64{0.1, 0.25, 0.6, 1} {
		da := Rule{Kind: KindDistAdvice, Lambda: lambda}
		for _, p := range []Prediction{
			WithMoments(200, 50000), // long regime -> advice 0 or near
			WithMoments(3, 10),      // short regime -> advice B
			New(500),                // degenerate long
			New(1),                  // degenerate short
		} {
			adv := da.Advise(28, xc, p)
			if !adv.Blended {
				t.Fatalf("lambda=%v not blended", lambda)
			}
			if adv.Threshold < xc-lambda*28-1e-12 || adv.Threshold > xc+lambda*28+1e-12 {
				t.Errorf("lambda=%v %+v: threshold %v outside trust region around %v", lambda, p, adv.Threshold, xc)
			}
			if adv.Threshold < 0 || adv.Threshold > 28 {
				t.Errorf("threshold %v outside [0, B]", adv.Threshold)
			}
		}
	}
}
