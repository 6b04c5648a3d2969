package simulator

import (
	"errors"
	"math"
	"testing"

	"idlereduce/internal/multislope"
)

func threeStatePolicy(t *testing.T) *multislope.Policy {
	t.Helper()
	prob, err := multislope.AutomotiveThreeState(28)
	if err != nil {
		t.Fatal(err)
	}
	return multislope.NewDeterministic(prob)
}

func TestRunMultiStateCostsMatchDecomposition(t *testing.T) {
	pol := threeStatePolicy(t)
	stops := []float64{3, 10, 30, 70, 500}
	const rate = 0.0258
	res, err := RunMultiState(MultiStateConfig{Policy: pol, CentsPerCostUnit: rate}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	// MS-DET is deterministic: per-stop costs must equal the analytic
	// mean cost exactly.
	for i, out := range res.Stops {
		want := pol.MeanCostForStop(stops[i]) * rate
		if math.Abs(out.CostCents-want) > 1e-9 {
			t.Errorf("stop %d: %v want %v", i, out.CostCents, want)
		}
	}
	if math.Abs(res.CR()-pol.TraceCR(stops)) > 1e-9 {
		t.Errorf("CR %v vs analytic %v", res.CR(), pol.TraceCR(stops))
	}
}

func TestRunMultiStateTrajectory(t *testing.T) {
	// MS-DET thresholds: beta1 ≈ 7.27, beta2 ≈ 53.3.
	pol := threeStatePolicy(t)
	stops := []float64{5, 20, 100}
	res, err := RunMultiState(MultiStateConfig{Policy: pol, CentsPerCostUnit: 1, RecordTransitions: true}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	wantDeepest := []int{0, 1, 2}
	for i, out := range res.Stops {
		if out.DeepestState != wantDeepest[i] {
			t.Errorf("stop %d: deepest %d want %d", i, out.DeepestState, wantDeepest[i])
		}
		if len(out.TransitionTimes) != out.DeepestState {
			t.Errorf("stop %d: %d transitions for depth %d", i, len(out.TransitionTimes), out.DeepestState)
		}
		// Transition times are increasing and below the stop length.
		prev := 0.0
		for _, tt := range out.TransitionTimes {
			if tt < prev || tt >= out.Length {
				t.Errorf("stop %d: transition at %v invalid", i, tt)
			}
			prev = tt
		}
	}
	if res.FullShutdowns != 1 {
		t.Errorf("full shutdowns %d want 1", res.FullShutdowns)
	}
	// Time-in-state accounting sums to total stopped time.
	total := 0.0
	for _, ts := range res.TimeInState {
		if ts < 0 {
			t.Errorf("negative state time %v", ts)
		}
		total += ts
	}
	if math.Abs(total-125) > 1e-9 {
		t.Errorf("state time sums to %v, want 125", total)
	}
}

func TestRunMultiStateRandomizedMatchesAnalytic(t *testing.T) {
	prob, err := multislope.AutomotiveThreeState(28)
	if err != nil {
		t.Fatal(err)
	}
	pol := multislope.NewRandomized(prob)
	stops := make([]float64, 30_000)
	rng := simRNG()
	for i := range stops {
		stops[i] = 1 + rng.Float64()*150
	}
	res, err := RunMultiState(MultiStateConfig{Policy: pol, CentsPerCostUnit: 1}, stops, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := pol.TraceCR(stops)
	if math.Abs(res.CR()-want) > 0.01*want {
		t.Errorf("MC CR %v vs analytic %v", res.CR(), want)
	}
}

func TestRunMultiStateValidation(t *testing.T) {
	pol := threeStatePolicy(t)
	if _, err := RunMultiState(MultiStateConfig{CentsPerCostUnit: 1}, []float64{1}, simRNG()); !errors.Is(err, ErrMultiState) {
		t.Error("want ErrMultiState for nil policy")
	}
	if _, err := RunMultiState(MultiStateConfig{Policy: pol}, []float64{1}, simRNG()); !errors.Is(err, ErrMultiState) {
		t.Error("want ErrMultiState for zero rate")
	}
	if _, err := RunMultiState(MultiStateConfig{Policy: pol, CentsPerCostUnit: math.Inf(1)}, []float64{1}, simRNG()); !errors.Is(err, ErrMultiState) {
		t.Error("want ErrMultiState for infinite rate")
	}
	if _, err := RunMultiState(MultiStateConfig{Policy: pol, CentsPerCostUnit: 1}, []float64{-1}, simRNG()); !errors.Is(err, ErrMultiState) {
		t.Error("want ErrMultiState for negative stop")
	}
}

func TestRunMultiStateReducesToClassic(t *testing.T) {
	// Two-slope ladder: the multi-state runner and the classic Run must
	// meter identical costs for the DET bundle.
	prob, err := multislope.NewProblem([]multislope.Slope{{Buy: 0, Rate: 1}, {Buy: 28, Rate: 0}})
	if err != nil {
		t.Fatal(err)
	}
	pol := multislope.NewDeterministic(prob)
	stops := []float64{10, 30, 5, 200}
	ms, err := RunMultiState(MultiStateConfig{Policy: pol, CentsPerCostUnit: testCosts.IdlingCentsPerSec}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	classic, err := Run(Config{Costs: testCosts, Policy: detPolicy28()}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms.CostCents-classic.OnlineCents) > 1e-9 {
		t.Errorf("multi-state %v vs classic %v", ms.CostCents, classic.OnlineCents)
	}
	if math.Abs(ms.OfflineCents-classic.OfflineCents) > 1e-9 {
		t.Errorf("offline mismatch %v vs %v", ms.OfflineCents, classic.OfflineCents)
	}
}
