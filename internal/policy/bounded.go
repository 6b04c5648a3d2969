package policy

import (
	"idlereduce/internal/predict"
	"idlereduce/internal/skirental"
)

// Bounded is a Strategy that publishes its theoretical worst-case
// competitive ratio: the guarantee the competitive-ratio ledger holds
// the strategy's realized decisions against. The bound must hold for
// every distribution consistent with the statistics the strategy was
// prepared from, and for every input the strategy accepts (for advised
// strategies, every prediction at the prepared trust parameter) — an
// empirical CR confidently above it is a contract breach, not noise.
type Bounded interface {
	Strategy
	// WorstCaseCRBound returns the published worst-case CR (> 1 for any
	// nontrivial instance).
	WorstCaseCRBound() float64
}

// WorstCaseCRBound implements Bounded: the constrained selection's own
// vertex guarantee (the paper's per-vertex CR at the selected vertex).
func (c *constrainedStrategy) WorstCaseCRBound() float64 { return c.p.WorstCaseCR() }

// WorstCaseCRBound implements Bounded: the segment-decomposition upper
// bound precomputed at Prepare time.
func (m *multislopeStrategy) WorstCaseCRBound() float64 { return m.worstCR }

// WorstCaseCRBound implements Bounded: the lambda-robustness envelope
// precomputed at Prepare time (see robustCRBound).
func (a *advisedStrategy) WorstCaseCRBound() float64 { return a.robustBound }

// advisedThresholdGrid is the fallback-threshold grid density used when
// the constrained fallback is randomized (N-Rand draws anywhere in
// [0, b]); deterministic fallbacks evaluate their single threshold.
const advisedThresholdGrid = 64

// robustCRBound computes the published worst-case CR of an advised
// strategy: a conservative envelope over every prediction the engine
// can receive.
//
// For a fallback draw xc, the rule's threshold stays inside its Reach.
// The adversary who knows the interval routes mass against both ends
// at once, which is exactly the two-threshold adversarial bound
// WorstCaseMixedCost — monotone as the pair spreads, so the interval
// endpoints give the per-draw maximum. The envelope is that maximum
// over every reachable xc (the deterministic fallback's single
// threshold, or a grid over [0, b] for N-Rand), floored by the
// fallback's own vertex guarantee so the prediction-free path is
// covered too.
func robustCRBound(fb *constrainedStrategy, rule predict.Rule) float64 {
	st := fb.stats
	offline := st.Mu + st.Q*st.B
	bound := fb.p.WorstCaseCR()
	if offline <= 0 {
		return bound
	}
	eval := func(xc float64) {
		lo, hi := rule.Reach(xc, st.B)
		cost := skirental.WorstCaseMixedCost(st.B, st.Mu, st.Q, lo, hi)
		if cr := cost / offline; cr > bound {
			bound = cr
		}
	}
	if det, ok := fb.p.Inner().(*skirental.Deterministic); ok {
		eval(det.X())
		return bound
	}
	for i := 0; i <= advisedThresholdGrid; i++ {
		eval(st.B * float64(i) / advisedThresholdGrid)
	}
	return bound
}
