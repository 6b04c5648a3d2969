package simulator

import (
	"fmt"
	"math/rand/v2"

	"idlereduce/internal/costmodel"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
	"idlereduce/internal/skirental"
)

// The consistency-robustness frontier (Fig. 4 of the learning-
// augmented ski-rental literature, reproduced for the constrained
// idling policies): sweep the trust parameter lambda over a grid of
// predictor models and report, per cell, the realized mean competitive
// ratio on a fixed trace plus the closed-form worst-case guarantee of
// the thresholds that trust level can reach. lambda = 0 pins both to
// the constrained fallback; raising lambda improves consistency under
// good predictors while the robustness bound degrades monotonically.

// FrontierConfig parameterizes one sweep.
type FrontierConfig struct {
	// Costs supplies the cost ratio; its B is the break-even interval
	// everything is built at.
	Costs costmodel.CostRatio
	// Stats is the constrained (mu_B-, q_B+) pair the fallback serves.
	Stats skirental.Stats
	// Engine is the spec of the advised engine to sweep, resolved by
	// policy.Lookup; empty means softml.
	Engine string
	// Lambdas is the trust grid; empty takes 0, 0.25, 0.5, 0.75, 1.
	Lambdas []float64
	// Predictors are the forecast models to sweep; empty takes the
	// standard panel (oracle, noisy, stale, biased, adversarial).
	Predictors []predict.Predictor
	// Stops is the evaluation trace all cells share.
	Stops []float64
	// Seed roots the per-cell RNG; every cell replays the same stream
	// so cells differ only by (lambda, predictor).
	Seed uint64
}

// FrontierPoint is one (lambda, predictor) cell of the sweep.
type FrontierPoint struct {
	Lambda    float64 `json:"lambda"`
	Predictor string  `json:"predictor"`
	// MeanCR is the realized online/offline cost ratio on the trace.
	MeanCR float64 `json:"mean_cr"`
	// OnlineCents is the metered policy cost of the trace.
	OnlineCents float64 `json:"online_cents"`
	// RobustnessCR is the closed-form worst-case competitive ratio over
	// every threshold this trust level can reach: the price of the
	// advice if an adversary controls both the predictions and the
	// stop lengths. Nondecreasing in lambda by construction.
	RobustnessCR float64 `json:"robustness_cr"`
}

// Frontier is a completed sweep: points in predictor-major,
// lambda-minor order, plus the constants every cell shared.
type Frontier struct {
	Engine  string          `json:"engine"`
	B       float64         `json:"b"`
	Mu      float64         `json:"mu"`
	Q       float64         `json:"q"`
	Stops   int             `json:"stops"`
	Seed    uint64          `json:"seed"`
	Lambdas []float64       `json:"lambdas"`
	Points  []FrontierPoint `json:"points"`
}

// DefaultFrontierLambdas is the standard trust grid.
func DefaultFrontierLambdas() []float64 { return []float64{0, 0.25, 0.5, 0.75, 1} }

// DefaultFrontierPredictors is the standard adversarial panel: the
// consistency anchor, three realistic degradations, and the worst
// case.
func DefaultFrontierPredictors(b float64) []predict.Predictor {
	return []predict.Predictor{
		predict.Oracle{},
		predict.Miscalibrated{Sigma: 0.5},
		predict.Stale{},
		predict.Biased{Factor: 0.5},
		predict.Adversarial{B: b},
	}
}

// robustnessCR evaluates the worst-case guarantee of an advice rule at
// its trust level: the rule can move the fallback's representative
// threshold x* anywhere in its Reach, so an adversary controlling both
// the stop distribution and the predictions routes every stop to the
// worse end of that interval. WorstCaseMixedCost is the closed form of
// that attack, normalized by the offline lower bound mu + q*b; it is
// nondecreasing in lambda because the interval only widens. For the
// randomized N-Rand fallback the representative threshold stands in
// for the draw, making the bound a conservative envelope rather than
// the (tighter) randomized guarantee.
func robustnessCR(rule predict.Rule, b float64, s skirental.Stats) float64 {
	x, _ := predict.RepresentativeThreshold(b, s.MuBMinus, s.QBPlus)
	if x > b {
		x = b
	}
	lo, hi := rule.Reach(x, b)
	worst := skirental.WorstCaseMixedCost(b, s.MuBMinus, s.QBPlus, lo, hi)
	offline := s.MuBMinus + s.QBPlus*b
	if offline <= 0 {
		return 1
	}
	return worst / offline
}

// SweepFrontier runs the full sweep over the strategies policy.Prepare
// serves for the engine, one per trust level. Every cell replays the
// same seed and trace, so the table is a pure function of the config.
func SweepFrontier(cfg FrontierConfig) (*Frontier, error) {
	spec := cfg.Engine
	if spec == "" {
		spec = policy.SoftMLEngine
	}
	eng, err := policy.Lookup(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: frontier engine: %w", ErrConfig, err)
	}
	b := cfg.Costs.B()
	lambdas := cfg.Lambdas
	if len(lambdas) == 0 {
		lambdas = DefaultFrontierLambdas()
	}
	predictors := cfg.Predictors
	if len(predictors) == 0 {
		predictors = DefaultFrontierPredictors(b)
	}
	if len(cfg.Stops) == 0 {
		return nil, fmt.Errorf("%w: frontier needs a stop trace", ErrConfig)
	}
	stats := policy.Stats{B: b, Mu: cfg.Stats.MuBMinus, Q: cfg.Stats.QBPlus}
	strategies := make([]policy.Advised, len(lambdas))
	for i, lambda := range lambdas {
		st, err := policy.Prepare(eng, stats, map[string]float64{"lambda": lambda})
		if err != nil {
			return nil, fmt.Errorf("simulator: frontier %s lambda=%g: %w", policy.Spec(eng), lambda, err)
		}
		adv, ok := st.(policy.Advised)
		if !ok {
			return nil, fmt.Errorf("%w: engine %s does not accept predictions", ErrConfig, policy.Spec(eng))
		}
		strategies[i] = adv
	}
	f := &Frontier{
		Engine:  eng.Name(),
		B:       b,
		Mu:      cfg.Stats.MuBMinus,
		Q:       cfg.Stats.QBPlus,
		Stops:   len(cfg.Stops),
		Seed:    cfg.Seed,
		Lambdas: lambdas,
	}
	// One source, reseeded per cell: every cell replays the same stream.
	src := rand.NewPCG(cfg.Seed, 0x5bf0_3635)
	rng := rand.New(src)
	for _, p := range predictors {
		for i, lambda := range lambdas {
			src.Seed(cfg.Seed, 0x5bf0_3635)
			res, err := RunAdvised(AdvisedConfig{
				Config:    Config{Costs: cfg.Costs},
				Advised:   strategies[i],
				Predictor: p,
			}, cfg.Stops, rng)
			if err != nil {
				return nil, fmt.Errorf("simulator: frontier cell (%s, lambda=%g): %w", p.Name(), lambda, err)
			}
			f.Points = append(f.Points, FrontierPoint{
				Lambda:       lambda,
				Predictor:    p.Name(),
				MeanCR:       res.CR(),
				OnlineCents:  res.OnlineCents,
				RobustnessCR: robustnessCR(strategies[i].Rule(), b, cfg.Stats),
			})
		}
	}
	return f, nil
}

// Row returns one predictor's points in lambda order.
func (f *Frontier) Row(predictor string) []FrontierPoint {
	var out []FrontierPoint
	for _, p := range f.Points {
		if p.Predictor == predictor {
			out = append(out, p)
		}
	}
	return out
}
