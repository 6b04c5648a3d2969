package simulator

import (
	"context"
	"fmt"
	"math/rand/v2"

	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
)

// AdvisedConfig parameterizes an advised run: a predictor model emits
// one forecast per stop and the advised strategy decides each stop
// under it.
type AdvisedConfig struct {
	// Config carries the costs and run options; RunAdvised ignores its
	// Policy and plays Advised instead.
	Config
	// Advised is the prediction-consuming strategy, as policy.Prepare
	// returns it for an advised engine, prepared at the break-even
	// interval of Config.Costs.
	Advised policy.Advised
	// Predictor emits the per-stop forecast; see predict.Oracle,
	// predict.Miscalibrated, predict.Stale, predict.Biased,
	// predict.Adversarial.
	Predictor predict.Predictor
}

// advisedAdapter threads per-stop forecasts through the simulator's
// one-Threshold-per-stop contract: each Threshold call predicts the
// upcoming stop and plays the threshold the strategy advises for it
// (Advise: the threshold DecideAdvised serves, without the
// per-decision bounds a run has no use for). It is single-use — one
// adapter per run.
type advisedAdapter struct {
	strategy  policy.Advised
	predictor predict.Predictor
	b         float64
	stops     []float64
	next      int
	prev      float64
}

func (a *advisedAdapter) Name() string {
	return fmt.Sprintf("%s+%s", a.strategy.Rule().Kind, a.predictor.Name())
}

func (a *advisedAdapter) B() float64 { return a.b }

func (a *advisedAdapter) Threshold(rng *rand.Rand) float64 {
	if a.next >= len(a.stops) {
		// Defensive: the simulator calls Threshold exactly once per
		// stop; past the trace the strategy degrades to its fallback.
		return a.strategy.Decide(rng).ThresholdSec
	}
	actual := a.stops[a.next]
	forecast := a.predictor.Predict(rng, actual, a.prev)
	a.prev = actual
	a.next++
	return a.strategy.Advise(rng, forecast).Threshold
}

// RunAdvised simulates an advised strategy over the stop sequence: the
// predictor sees each stop's true length (and the previous one), then
// the strategy draws its fallback threshold and applies its advice
// rule, exactly as /v1/decide does. Everything else — playing each
// stop, the cost totals, observability — is the plain Run path.
func RunAdvised(cfg AdvisedConfig, stops []float64, rng *rand.Rand) (*Result, error) {
	if cfg.Advised == nil {
		return nil, fmt.Errorf("%w: nil advised strategy", ErrConfig)
	}
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("%w: nil predictor", ErrConfig)
	}
	src := &advisedAdapter{strategy: cfg.Advised, predictor: cfg.Predictor, b: cfg.Costs.B(), stops: stops}
	return run(context.Background(), cfg.Config, src, stops, rng)
}
