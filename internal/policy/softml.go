package policy

import (
	"fmt"
	"math/rand/v2"

	"idlereduce/internal/predict"
	"idlereduce/internal/skirental"
)

// Engine names of the learning-augmented families.
const (
	// SoftMLEngine is the lambda-robust point-forecast blend.
	SoftMLEngine = "softml"
	// DistAdviceEngine is the distributional-advice variant.
	DistAdviceEngine = "distadvice"
)

// lambdaParam is the shared trust-parameter declaration of both
// learning-augmented engines.
var lambdaParam = ParamSpec{
	Name:    "lambda",
	Doc:     "trust in the prediction: 0 = pure constrained fallback, 1 = follow the advice",
	Default: 0.5,
	Min:     0,
	Max:     1,
}

// blendLabels[kind][vertex] is the Choice of a blended decision: the
// rule's name and the vertex that labels the blend.
var blendLabels [predict.KindDistAdvice + 1][skirental.ChoiceBDet + 1]string

func init() {
	for k := range blendLabels {
		for v := range blendLabels[k] {
			blendLabels[k][v] = fmt.Sprintf("%s[%s]", predict.Kind(k), skirental.Choice(v))
		}
	}
	Register(&advisedEngine{name: SoftMLEngine, kind: predict.KindSoftML,
		doc: "lambda-robust blend of a point stop-length prediction with the constrained-vertex fallback"})
	Register(&advisedEngine{name: DistAdviceEngine, kind: predict.KindDistAdvice,
		doc: "vertex selection on predicted distribution moments, clamped to the lambda trust region"})
}

// advisedEngine is a learning-augmented engine: the constrained-vertex
// fallback plus one predict advice rule at the requested trust lambda.
type advisedEngine struct {
	name string
	kind predict.Kind
	doc  string
}

// Name implements Engine.
func (e *advisedEngine) Name() string { return e.name }

// Version implements Engine.
func (*advisedEngine) Version() int { return 1 }

// Doc implements Engine.
func (e *advisedEngine) Doc() string { return e.doc }

// Params implements Parametric.
func (*advisedEngine) Params() []ParamSpec { return []ParamSpec{lambdaParam} }

// Prepare implements Engine: the all-defaults preparation.
func (e *advisedEngine) Prepare(s Stats) (Strategy, error) { return e.PrepareParams(s, nil) }

// PrepareParams implements Parametric.
func (e *advisedEngine) PrepareParams(s Stats, params map[string]float64) (Strategy, error) {
	resolved, err := ResolveParams(e, params)
	if err != nil {
		return nil, err
	}
	fb, err := constrainedEngine{}.Prepare(s)
	if err != nil {
		return nil, err
	}
	a := &advisedStrategy{
		fallback: fb.(*constrainedStrategy),
		rule:     predict.Rule{Kind: e.kind, Lambda: resolved["lambda"]},
		engine:   e,
	}
	a.robustBound = robustCRBound(a.fallback, a.rule)
	return a, nil
}

// advisedStrategy is the prepared form of both learning-augmented
// engines. Without a prediction it IS the constrained fallback —
// Decide delegates verbatim, same RNG consumption, same decision
// bytes. With a prediction, Advise draws the fallback threshold from
// the same stream position and hands it to the engine's advice rule;
// DecideAdvised re-derives the advised threshold's guarantee through
// the paper's worst-case threshold cost, so every decision still
// carries an honest robustness bound.
type advisedStrategy struct {
	fallback *constrainedStrategy
	rule     predict.Rule
	engine   *advisedEngine
	// robustBound is the published lambda-robustness envelope (see
	// robustCRBound in bounded.go), precomputed at Prepare time.
	robustBound float64
}

// Decide implements Strategy: the prediction-free path is the
// constrained fallback, bit for bit.
func (a *advisedStrategy) Decide(rng *rand.Rand) Decision { return a.fallback.Decide(rng) }

// Advise implements Advised.
func (a *advisedStrategy) Advise(rng *rand.Rand, p predict.Prediction) predict.Advice {
	return a.rule.Advise(a.fallback.stats.B, a.fallback.p.Threshold(rng), p)
}

// DecideAdvised implements Advised.
func (a *advisedStrategy) DecideAdvised(rng *rand.Rand, p predict.Prediction) Decision {
	adv := a.Advise(rng, p)
	if !adv.Blended {
		// Zero effective trust: the advice threshold is exactly the
		// fallback draw, so the decision is the fallback decision.
		return Decision{
			Choice:        a.fallback.choice,
			ThresholdSec:  adv.Threshold,
			WorstCaseCost: a.fallback.p.WorstCaseCost(),
			WorstCaseCR:   a.fallback.p.WorstCaseCR(),
		}
	}
	st := a.fallback.stats
	cost := skirental.WorstCaseDetCost(st.B, st.Mu, st.Q, adv.Threshold)
	cr := 1.0
	if off := st.Mu + st.Q*st.B; off > 0 {
		cr = cost / off
	}
	// softml labels its blend by the fallback vertex it moved off,
	// distadvice by the vertex its advice selected.
	vertex := adv.Vertex
	if a.rule.Kind == predict.KindSoftML {
		vertex = a.fallback.p.Choice()
	}
	return Decision{
		Choice:        blendLabels[a.rule.Kind][vertex],
		ThresholdSec:  adv.Threshold,
		WorstCaseCost: cost,
		WorstCaseCR:   cr,
	}
}

// Rule implements Advised.
func (a *advisedStrategy) Rule() predict.Rule { return a.rule }

// Describe implements Strategy: the prediction-free serving summary is
// the fallback's.
func (a *advisedStrategy) Describe() Description { return a.fallback.Describe() }

// Explain implements Strategy.
func (a *advisedStrategy) Explain() string {
	return fmt.Sprintf("%s: lambda=%g blend of prediction advice against fallback [%s]",
		Spec(a.engine), a.rule.Lambda, a.fallback.Explain())
}
