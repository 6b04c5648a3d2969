package policy

import (
	"math"
	"math/rand/v2"
	"testing"

	"idlereduce/internal/predict"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 7)) }

// predictionPanel spans the advice extremes: confident short, confident
// long, half-confidence, and distributional moments on both sides of b.
func predictionPanel(b float64) []predict.Prediction {
	half := predict.New(b / 2)
	half.Confidence = 0.5
	return []predict.Prediction{
		predict.New(1),
		predict.New(10 * b),
		half,
		predict.WithMoments(b/4, b*b/8),
		predict.WithMoments(4*b, 20*b*b),
	}
}

// boundedStrategy prepares an engine (with optional params) and
// asserts the strategy publishes a bound.
func boundedStrategy(t *testing.T, spec string, s Stats, params map[string]float64) Bounded {
	t.Helper()
	e, err := Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	var st Strategy
	if pe, ok := e.(Parametric); ok {
		st, err = pe.PrepareParams(s, params)
	} else {
		st, err = e.Prepare(s)
	}
	if err != nil {
		t.Fatal(err)
	}
	b, ok := st.(Bounded)
	if !ok {
		t.Fatalf("engine %s strategy %T does not publish a worst-case CR bound", spec, st)
	}
	return b
}

// TestEveryEnginePublishesBound: every registered engine's prepared
// strategy implements Bounded with a finite bound >= 1.
func TestEveryEnginePublishesBound(t *testing.T) {
	s := Stats{B: 28, Mu: 8, Q: 0.13}
	for _, name := range Names() {
		b := boundedStrategy(t, name, s, nil)
		got := b.WorstCaseCRBound()
		if !(got >= 1) || math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("engine %s bound %v, want finite >= 1", name, got)
		}
	}
}

// TestConstrainedBoundMatchesVertexCR: the default engine's published
// bound is the selected vertex's guarantee, and per-decision
// WorstCaseCR never exceeds it.
func TestConstrainedBoundMatchesVertexCR(t *testing.T) {
	s := Stats{B: 28, Mu: 8, Q: 0.13}
	b := boundedStrategy(t, DefaultEngine, s, nil)
	d := b.Decide(testRNG(1))
	if d.WorstCaseCR != b.WorstCaseCRBound() {
		t.Errorf("decision CR %v != published bound %v", d.WorstCaseCR, b.WorstCaseCRBound())
	}
}

// TestMultislopeBoundMatchesDescription: the bundle's published bound
// is its precomputed decomposition CR.
func TestMultislopeBoundMatchesDescription(t *testing.T) {
	s := Stats{B: 28, Mu: 8, Q: 0.13}
	b := boundedStrategy(t, MultislopeEngine, s, nil)
	if got, want := b.WorstCaseCRBound(), b.Describe().WorstCaseCR; got != want {
		t.Errorf("bound %v != described CR %v", got, want)
	}
}

// TestAdvisedBoundProperties: the lambda-robustness envelope collapses
// to the fallback bound at lambda 0, grows with lambda, and dominates
// the fallback bound everywhere.
func TestAdvisedBoundProperties(t *testing.T) {
	s := Stats{B: 28, Mu: 8, Q: 0.13}
	fb := boundedStrategy(t, DefaultEngine, s, nil).WorstCaseCRBound()
	for _, spec := range []string{SoftMLEngine, DistAdviceEngine} {
		prev := 0.0
		for i, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
			b := boundedStrategy(t, spec, s, map[string]float64{"lambda": lambda})
			got := b.WorstCaseCRBound()
			if got < fb {
				t.Errorf("%s lambda=%g bound %v below fallback bound %v", spec, lambda, got, fb)
			}
			if lambda == 0 && got != fb {
				t.Errorf("%s lambda=0 bound %v, want exactly fallback %v", spec, got, fb)
			}
			if i > 0 && got < prev-1e-12 {
				t.Errorf("%s bound not monotone in lambda: %v after %v", spec, got, prev)
			}
			prev = got
		}
	}
}

// TestAdvisedDecisionBoundWithinEnvelope: every advised decision's
// per-decision worst-case CR stays within the published envelope, for
// deterministic and randomized fallbacks alike.
func TestAdvisedDecisionBoundWithinEnvelope(t *testing.T) {
	for _, s := range []Stats{
		{B: 28, Mu: 8, Q: 0.13},  // deterministic-fallback regime
		{B: 28, Mu: 4, Q: 0.25},  // N-Rand regime
		{B: 28, Mu: 0.5, Q: 0.3}, // b-DET regime
		{B: 28, Mu: 10, Q: 0.4},  // TOI regime
	} {
		for _, spec := range []string{SoftMLEngine, DistAdviceEngine} {
			b := boundedStrategy(t, spec, s, map[string]float64{"lambda": 0.6})
			adv, ok := Strategy(b).(Advised)
			if !ok {
				t.Fatalf("%s strategy is not Advised", spec)
			}
			for seed := uint64(1); seed <= 20; seed++ {
				for _, pred := range predictionPanel(s.B) {
					d := adv.DecideAdvised(testRNG(seed), pred)
					if d.WorstCaseCR > b.WorstCaseCRBound()+1e-9 {
						t.Errorf("%s stats %+v seed %d pred %+v: decision CR %v exceeds envelope %v",
							spec, s, seed, pred, d.WorstCaseCR, b.WorstCaseCRBound())
					}
				}
			}
		}
	}
}
