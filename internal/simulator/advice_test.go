package simulator

import (
	"math"
	"math/rand/v2"
	"testing"

	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
	"idlereduce/internal/skirental"
)

// testStats is an N-Rand-selecting pair at B=28, so advised runs
// exercise randomized fallback draws.
var testStats = skirental.Stats{MuBMinus: 4, QBPlus: 0.25}

// mustSoftML prepares the served softml strategy for testStats at B=28.
func mustSoftML(t *testing.T, lambda float64) policy.Advised {
	t.Helper()
	eng, err := policy.Lookup(policy.SoftMLEngine)
	if err != nil {
		t.Fatal(err)
	}
	st, err := policy.Prepare(eng, policy.Stats{B: 28, Mu: testStats.MuBMinus, Q: testStats.QBPlus},
		map[string]float64{"lambda": lambda})
	if err != nil {
		t.Fatal(err)
	}
	return st.(policy.Advised)
}

// mustFallback is the constrained policy the advised strategies fall
// back to.
func mustFallback(t *testing.T) *skirental.Constrained {
	t.Helper()
	c, err := skirental.NewConstrained(28, testStats)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testTrace is a deterministic stop mix straddling B=28: short stops,
// long stops, and boundary lengths.
func testTrace(n int) []float64 {
	rng := rand.New(rand.NewPCG(99, 7))
	stops := make([]float64, n)
	for i := range stops {
		stops[i] = 1 + rng.Float64()*120
	}
	return stops
}

// TestRunAdvisedZeroLambdaMatchesFallback: at lambda = 0 an advised
// run is the plain constrained run, stop for stop — same thresholds,
// same costs — regardless of the predictor feeding it. The predictor
// here consumes no randomness, so the RNG streams stay aligned.
func TestRunAdvisedZeroLambdaMatchesFallback(t *testing.T) {
	stops := testTrace(500)
	pol := mustSoftML(t, 0)
	want, err := Run(Config{Costs: testCosts, Policy: mustFallback(t)}, stops, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAdvised(AdvisedConfig{
		Config:    Config{Costs: testCosts},
		Advised:   pol,
		Predictor: predict.Adversarial{B: 28},
	}, stops, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stops) != len(want.Stops) {
		t.Fatalf("stop counts %d != %d", len(got.Stops), len(want.Stops))
	}
	for i := range got.Stops {
		if math.Float64bits(got.Stops[i].Threshold) != math.Float64bits(want.Stops[i].Threshold) {
			t.Fatalf("stop %d threshold %v != fallback %v", i, got.Stops[i].Threshold, want.Stops[i].Threshold)
		}
	}
	if got.OnlineCents != want.OnlineCents || got.OfflineCents != want.OfflineCents {
		t.Errorf("advised lambda=0 costs (%v, %v) != fallback (%v, %v)",
			got.OnlineCents, got.OfflineCents, want.OnlineCents, want.OfflineCents)
	}
}

// TestRunAdvisedOracleBeatsFallback is the consistency acceptance
// property: full trust in an oracle predictor plays the offline
// optimum on every stop, so its mean cost strictly beats the
// constrained fallback and its realized CR is exactly 1.
func TestRunAdvisedOracleBeatsFallback(t *testing.T) {
	stops := testTrace(2000)
	pol := mustSoftML(t, 1)
	base, err := Run(Config{Costs: testCosts, Policy: mustFallback(t)}, stops, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunAdvised(AdvisedConfig{
		Config:    Config{Costs: testCosts},
		Advised:   pol,
		Predictor: predict.Oracle{},
	}, stops, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	if oracle.OnlineCents >= base.OnlineCents {
		t.Errorf("oracle advised cost %v did not beat fallback %v", oracle.OnlineCents, base.OnlineCents)
	}
	if cr := oracle.CR(); math.Abs(cr-1) > 1e-9 {
		t.Errorf("oracle at full trust realized CR %v, want exactly 1", cr)
	}
}

// TestRunAdvisedAdversaryStaysBounded: even under the worst predictor
// at full trust, every realized per-stop cost respects the closed-form
// bound of the threshold that was played — trusting advice never
// creates an unbounded ratio.
func TestRunAdvisedAdversaryStaysBounded(t *testing.T) {
	stops := testTrace(500)
	pol := mustSoftML(t, 1)
	res, err := RunAdvised(AdvisedConfig{
		Config:    Config{Costs: testCosts},
		Advised:   pol,
		Predictor: predict.Adversarial{B: 28},
	}, stops, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Stops {
		// Realized cost of one stop with threshold x is at most x + b.
		if s.Online > s.Threshold+28 {
			t.Fatalf("stop %d cost %v exceeds threshold bound", i, s.Online)
		}
	}
	if res.CR() < 1 {
		t.Errorf("CR %v < 1", res.CR())
	}
}

// TestRunAdvisedValidation: nil pieces are config errors, not panics.
func TestRunAdvisedValidation(t *testing.T) {
	pol := mustSoftML(t, 0.5)
	if _, err := RunAdvised(AdvisedConfig{Config: Config{Costs: testCosts}, Predictor: predict.Oracle{}}, []float64{5}, simRNG()); err == nil {
		t.Error("want error for nil advised strategy")
	}
	if _, err := RunAdvised(AdvisedConfig{Config: Config{Costs: testCosts}, Advised: pol}, []float64{5}, simRNG()); err == nil {
		t.Error("want error for nil predictor")
	}
}

// TestSweepFrontierShape: the sweep covers the full grid, every cell
// is finite, and lambda = 0 cells pin both columns to the constrained
// fallback regardless of predictor.
func TestSweepFrontierShape(t *testing.T) {
	f, err := SweepFrontier(FrontierConfig{
		Costs: testCosts,
		Stats: testStats,
		Stops: testTrace(400),
		Seed:  20140601,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl, np := len(DefaultFrontierLambdas()), len(DefaultFrontierPredictors(28))
	if len(f.Points) != nl*np {
		t.Fatalf("%d points, want %d", len(f.Points), nl*np)
	}
	var zeroCR, zeroRob float64
	first := true
	for _, p := range f.Points {
		if math.IsNaN(p.MeanCR) || math.IsInf(p.MeanCR, 0) || p.MeanCR < 1-1e-9 {
			t.Errorf("cell (%s, %g) mean CR %v", p.Predictor, p.Lambda, p.MeanCR)
		}
		if p.RobustnessCR < 1-1e-9 {
			t.Errorf("cell (%s, %g) robustness %v < 1", p.Predictor, p.Lambda, p.RobustnessCR)
		}
		if p.Lambda == 0 {
			if first {
				zeroCR, zeroRob, first = p.MeanCR, p.RobustnessCR, false
				continue
			}
			if p.RobustnessCR != zeroRob {
				t.Errorf("lambda=0 cell (%s) robustness %v differs from %v", p.Predictor, p.RobustnessCR, zeroRob)
			}
			// The noisy predictor consumes RNG draws of its own, which
			// shifts the fallback stream; only non-consuming predictors
			// replay the identical lambda=0 trace.
			if p.Predictor != "noisy(0.5)" && p.MeanCR != zeroCR {
				t.Errorf("lambda=0 cell (%s) CR %v differs from %v", p.Predictor, p.MeanCR, zeroCR)
			}
		}
	}
}

// TestSweepFrontierMonotone is the frontier acceptance property: the
// robustness bound is nondecreasing in lambda, and the oracle row's
// realized CR reaches 1 at full trust — strictly below its lambda = 0
// value.
func TestSweepFrontierMonotone(t *testing.T) {
	for _, engine := range []string{policy.SoftMLEngine, policy.DistAdviceEngine} {
		f, err := SweepFrontier(FrontierConfig{
			Costs:  testCosts,
			Stats:  testStats,
			Engine: engine,
			Stops:  testTrace(2000),
			Seed:   20140601,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range []string{"oracle", "stale", "adversarial"} {
			row := f.Row(pred)
			if len(row) != len(f.Lambdas) {
				t.Fatalf("%s/%s row has %d points", engine, pred, len(row))
			}
			for i := 1; i < len(row); i++ {
				if row[i].RobustnessCR < row[i-1].RobustnessCR-1e-9 {
					t.Errorf("%s/%s robustness not monotone: %v after %v at lambda %g",
						engine, pred, row[i].RobustnessCR, row[i-1].RobustnessCR, row[i].Lambda)
				}
			}
		}
		orc := f.Row("oracle")
		last := orc[len(orc)-1]
		if engine == policy.SoftMLEngine {
			if math.Abs(last.MeanCR-1) > 1e-9 {
				t.Errorf("%s oracle at lambda=1 CR %v, want 1", engine, last.MeanCR)
			}
		}
		if last.MeanCR >= orc[0].MeanCR {
			t.Errorf("%s oracle CR did not improve with trust: %v at lambda=1 vs %v at lambda=0",
				engine, last.MeanCR, orc[0].MeanCR)
		}
	}
}

// TestSweepFrontierDeterministic: same config, same table.
func TestSweepFrontierDeterministic(t *testing.T) {
	cfg := FrontierConfig{Costs: testCosts, Stats: testStats, Stops: testTrace(300), Seed: 7}
	a, err := SweepFrontier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepFrontier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d diverged: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

// TestSweepFrontierValidation: unknown or prediction-free engine, bad
// lambda, empty trace.
func TestSweepFrontierValidation(t *testing.T) {
	base := FrontierConfig{Costs: testCosts, Stats: testStats, Stops: []float64{5, 50}, Seed: 1}
	for _, engine := range []string{"psychic", policy.DefaultEngine, policy.MultislopeEngine} {
		bad := base
		bad.Engine = engine
		if _, err := SweepFrontier(bad); err == nil {
			t.Errorf("want error for engine %q", engine)
		}
	}
	bad := base
	bad = base
	bad.Lambdas = []float64{0, 2}
	if _, err := SweepFrontier(bad); err == nil {
		t.Error("want error for lambda outside [0,1]")
	}
	bad = base
	bad.Stops = nil
	if _, err := SweepFrontier(bad); err == nil {
		t.Error("want error for empty trace")
	}
}

// TestFrontierRobustnessMatchesServedBound: over a deterministic
// fallback the representative threshold is the fallback's threshold,
// so the frontier's robustness column must equal the cr_bound the
// served strategy publishes, for both engines and every trust level.
func TestFrontierRobustnessMatchesServedBound(t *testing.T) {
	for _, s := range []skirental.Stats{
		{MuBMinus: 8, QBPlus: 0.13},  // DET
		{MuBMinus: 0.5, QBPlus: 0.3}, // b-DET
		{MuBMinus: 10, QBPlus: 0.4},  // TOI
	} {
		for _, engine := range []string{policy.SoftMLEngine, policy.DistAdviceEngine} {
			f, err := SweepFrontier(FrontierConfig{
				Costs: testCosts, Stats: s, Engine: engine, Stops: testTrace(50), Seed: 3,
				Predictors: []predict.Predictor{predict.Oracle{}},
			})
			if err != nil {
				t.Fatal(err)
			}
			eng, _ := policy.Lookup(engine)
			for _, p := range f.Points {
				st, err := policy.Prepare(eng, policy.Stats{B: 28, Mu: s.MuBMinus, Q: s.QBPlus},
					map[string]float64{"lambda": p.Lambda})
				if err != nil {
					t.Fatal(err)
				}
				if served := st.(policy.Bounded).WorstCaseCRBound(); p.RobustnessCR != served {
					t.Errorf("%s %+v lambda=%g: frontier robustness %v != served bound %v",
						engine, s, p.Lambda, p.RobustnessCR, served)
				}
			}
		}
	}
}
