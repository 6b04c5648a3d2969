package policy

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"idlereduce/internal/predict"
)

func mustPrepare(t *testing.T, spec string, s Stats, params map[string]float64) Strategy {
	t.Helper()
	e, err := Lookup(spec)
	if err != nil {
		t.Fatal(err)
	}
	pe, ok := e.(Parametric)
	if !ok {
		t.Fatalf("engine %s is not Parametric", spec)
	}
	resolved, err := ResolveParams(pe, params)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := pe.PrepareParams(s, resolved)
	if err != nil {
		t.Fatal(err)
	}
	return strat
}

// sameDecision compares decisions field by field, bit-exact on the
// floats (Schedule is nil for every single-slope engine here).
func sameDecision(a, b Decision) bool {
	return a.Choice == b.Choice &&
		math.Float64bits(a.ThresholdSec) == math.Float64bits(b.ThresholdSec) &&
		a.WorstCaseCost == b.WorstCaseCost &&
		a.WorstCaseCR == b.WorstCaseCR &&
		a.Schedule == nil && b.Schedule == nil
}

func TestAdvisedEnginesRegistered(t *testing.T) {
	for _, spec := range []string{"softml@v1", "distadvice@v1"} {
		e, err := Lookup(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		pe, ok := e.(Parametric)
		if !ok {
			t.Fatalf("%s not Parametric", spec)
		}
		ps := pe.Params()
		if len(ps) != 1 || ps[0].Name != "lambda" || ps[0].Min != 0 || ps[0].Max != 1 || ps[0].Default != 0.5 {
			t.Fatalf("%s params %+v", spec, ps)
		}
		strat, err := e.Prepare(Stats{B: 28, Mu: 4, Q: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := strat.(Advised); !ok {
			t.Fatalf("%s strategy not Advised", spec)
		}
	}
}

// TestAdvisedZeroLambdaBitIdentical is the acceptance-criterion core:
// at lambda = 0 both advised engines are bit-identical to
// constrained@v1 — with and without a prediction, from the same RNG
// stream position.
func TestAdvisedZeroLambdaBitIdentical(t *testing.T) {
	stats := []Stats{
		{B: 28, Mu: 8, Q: 0.13}, // DET region (deterministic draw)
		{B: 28, Mu: 4, Q: 0.25}, // N-Rand region (random draw)
		{B: 28, Mu: 0.5, Q: 0.9},
		{B: 28, Mu: 0.5, Q: 0.3}, // b-DET region
		{B: 28, Mu: 10, Q: 0.4},  // TOI region
	}
	ce, _ := Lookup("constrained@v1")
	preds := []predict.Prediction{
		predict.New(500),
		predict.New(1),
		predict.WithMoments(120, 20000),
		{StopSec: 40, Confidence: 0.7},
	}
	for _, spec := range []string{"softml@v1", "distadvice@v1"} {
		for _, s := range stats {
			want, err := ce.Prepare(s)
			if err != nil {
				t.Fatal(err)
			}
			strat := mustPrepare(t, spec, s, map[string]float64{"lambda": 0})
			adv := strat.(Advised)
			for seed := uint64(1); seed <= 20; seed++ {
				ref := want.Decide(rand.New(rand.NewPCG(seed, 3)))
				plain := strat.Decide(rand.New(rand.NewPCG(seed, 3)))
				if !sameDecision(plain, ref) {
					t.Fatalf("%s %+v seed %d: Decide %+v != constrained %+v", spec, s, seed, plain, ref)
				}
				p := preds[int(seed)%len(preds)]
				advised := adv.DecideAdvised(rand.New(rand.NewPCG(seed, 3)), p)
				if !sameDecision(advised, ref) {
					t.Fatalf("%s %+v seed %d: DecideAdvised(%+v) %+v != constrained %+v", spec, s, seed, p, advised, ref)
				}
			}
			if d1, d2 := want.Describe(), strat.Describe(); d1 != d2 {
				t.Fatalf("%s %+v: Describe %+v != constrained %+v", spec, s, d1, d2)
			}
		}
	}
}

// TestAdvisedBlendedDecision: with trust, a decisive prediction moves
// the threshold, the choice is labelled as a blend, and the bounds are
// the worst-case cost of the realized threshold.
func TestAdvisedBlendedDecision(t *testing.T) {
	s := Stats{B: 28, Mu: 8, Q: 0.13} // constrained plays DET (threshold B)
	strat := mustPrepare(t, "softml@v1", s, map[string]float64{"lambda": 1})
	adv := strat.(Advised)
	d := adv.DecideAdvised(rand.New(rand.NewPCG(1, 1)), predict.New(400))
	if d.ThresholdSec != 0 {
		t.Fatalf("full-trust long forecast threshold %v, want 0", d.ThresholdSec)
	}
	if d.Choice != "SoftML[DET]" {
		t.Fatalf("choice %q", d.Choice)
	}
	// Threshold 0 is TOI: worst case B, CR B/(mu+qB).
	if math.Abs(d.WorstCaseCost-28) > 1e-12 {
		t.Fatalf("worst-case cost %v, want 28", d.WorstCaseCost)
	}
	wantCR := 28 / (8 + 0.13*28)
	if math.Abs(d.WorstCaseCR-wantCR) > 1e-12 {
		t.Fatalf("worst-case CR %v, want %v", d.WorstCaseCR, wantCR)
	}

	da := mustPrepare(t, "distadvice@v1", s, map[string]float64{"lambda": 0.5}).(Advised)
	d = da.DecideAdvised(rand.New(rand.NewPCG(1, 1)), predict.WithMoments(200, 50000))
	if d.Choice == "" || d.Choice[:11] != "DistAdvice[" {
		t.Fatalf("distadvice choice %q", d.Choice)
	}
	// Trust region: within lambda*B of the fallback draw (DET plays B).
	if d.ThresholdSec < 28-0.5*28-1e-12 || d.ThresholdSec > 28 {
		t.Fatalf("distadvice threshold %v outside trust region", d.ThresholdSec)
	}
	if d.WorstCaseCost <= 0 || math.IsNaN(d.WorstCaseCR) {
		t.Fatalf("degenerate bounds %+v", d)
	}
}

func TestResolveParamsValidation(t *testing.T) {
	e, _ := Lookup("softml")
	pe := e.(Parametric)
	got, err := ResolveParams(pe, nil)
	if err != nil || got["lambda"] != 0.5 {
		t.Fatalf("defaults: %v %v", got, err)
	}
	got, err = ResolveParams(pe, map[string]float64{"lambda": 0.9})
	if err != nil || got["lambda"] != 0.9 {
		t.Fatalf("override: %v %v", got, err)
	}
	for name, bad := range map[string]map[string]float64{
		"unknown":  {"gamma": 1},
		"low":      {"lambda": -0.1},
		"high":     {"lambda": 1.1},
		"nan":      {"lambda": math.NaN()},
		"plus-inf": {"lambda": math.Inf(1)},
	} {
		if _, err := ResolveParams(pe, bad); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: %v, want ErrBadParams", name, err)
		}
	}
}

func TestAdvisedInfeasibleStats(t *testing.T) {
	for _, spec := range []string{"softml", "distadvice"} {
		e, _ := Lookup(spec)
		if _, err := e.Prepare(Stats{B: 28, Mu: 30, Q: 0.5}); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: %v, want ErrInfeasible", spec, err)
		}
	}
}
