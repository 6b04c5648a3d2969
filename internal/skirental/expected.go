package skirental

import (
	"math"
	"math/rand/v2"

	"idlereduce/internal/dist"
	"idlereduce/internal/numeric"
)

// ExpectedCost returns J(P, q) (eq. 15): the expected online cost of
// policy p against stop-length distribution d, using the policy's
// analytic per-stop mean cost. Mixtures are decomposed so atoms are
// handled exactly; continuous distributions are integrated to their
// 1-1e-9 quantile with the tail bounded analytically.
func ExpectedCost(p Policy, d dist.Distribution) float64 {
	switch dd := d.(type) {
	case dist.PointMass:
		return p.MeanCostForStop(dd.At)
	case *dist.Mixture:
		v := 0.0
		for _, c := range dd.Components() {
			v += c.W * ExpectedCost(p, c.D)
		}
		return v
	case *dist.Empirical:
		// An empirical distribution is an atom per observation.
		var sum numeric.KahanSum
		for _, y := range dd.Values() {
			sum.Add(p.MeanCostForStop(y))
		}
		return sum.Sum() / float64(dd.N())
	}
	b := p.B()
	// Split at B: above B every policy in this package has a constant
	// mean cost (thresholds never exceed B except NEV, handled below).
	q := dist.QBPlus(d, b)
	short, err := numeric.IntegrateSimpson(func(y float64) float64 {
		return p.MeanCostForStop(y) * d.PDF(y)
	}, 0, b, 1e-10)
	if err != nil {
		short = numeric.IntegrateN(func(y float64) float64 {
			return p.MeanCostForStop(y) * d.PDF(y)
		}, 0, b, 1<<14)
	}
	if det, ok := p.(*Deterministic); ok && det.X() > b {
		// Thresholds above B (NEV, ablation policies) have y-dependent
		// cost on the tail; integrate it explicitly.
		hi := d.Quantile(1 - 1e-9)
		if math.IsInf(hi, 1) {
			return math.Inf(1)
		}
		tail := numeric.IntegrateN(func(y float64) float64 {
			return p.MeanCostForStop(y) * d.PDF(y)
		}, b, hi, 1<<14)
		return short + tail
	}
	// Every remaining policy draws thresholds in [0, B], so the mean cost
	// is constant for y > B.
	return short + q*p.MeanCostForStop(b*2)
}

// ExpectedCR returns CR (eq. 5): ExpectedCost(p, d) divided by the
// expected offline cost mu_B- + q_B+·B of d.
func ExpectedCR(p Policy, d dist.Distribution) float64 {
	off := StatsOf(d, p.B()).OfflineCost(p.B())
	if off == 0 {
		return 1
	}
	return ExpectedCost(p, d) / off
}

// TraceCost evaluates a policy on a concrete stop sequence, drawing a
// fresh threshold per stop, and returns total online and offline cost:
// the Monte Carlo counterpart of ExpectedCost. It plays each stop
// through Play and sums left to right, so a simulator run with the same
// draws reports these totals bit for bit.
func TraceCost(p Policy, stops []float64, rng *rand.Rand) (online, offline float64) {
	b := p.B()
	for _, y := range stops {
		s := Play(p.Threshold(rng), y, b)
		online += s.Online
		offline += s.Opt
	}
	return online, offline
}

// TraceMeanCost evaluates a policy on a stop sequence using analytic
// per-stop expectations (no sampling noise) and returns total expected
// online and offline cost, summed left to right as TraceCost sums.
// Per-vehicle CRs in the Figure 4 experiment are ratios of these
// totals.
func TraceMeanCost(p Policy, stops []float64) (online, offline float64) {
	b := p.B()
	for _, y := range stops {
		online += p.MeanCostForStop(y)
		offline += OfflineCost(y, b)
	}
	return online, offline
}

// TraceCR returns the expected competitive ratio of p on the stop
// sequence: TraceMeanCost online total over offline total. An empty or
// zero-cost trace reports 1.
func TraceCR(p Policy, stops []float64) float64 {
	on, off := TraceMeanCost(p, stops)
	if off == 0 {
		return 1
	}
	return on / off
}

// ExpectedCRPrime is the alternative competitive metric CR' of eq. 8:
// the expectation over stop lengths of the per-stop ratio
// E_x[cost_online(x, y)] / cost_offline(y), as opposed to CR (eq. 5)
// which is the ratio of expectations. MOM-Rand optimizes CR'; the paper
// optimizes CR. Distributions with mass arbitrarily close to zero make
// CR' unbounded for any policy with an atom at threshold 0 (TOI pays B
// against an offline cost of y -> 0), which is one reason the paper
// prefers CR.
func ExpectedCRPrime(p Policy, d dist.Distribution) float64 {
	ratio := func(y float64) float64 {
		off := OfflineCost(y, p.B())
		if off == 0 {
			return 1
		}
		return p.MeanCostForStop(y) / off
	}
	switch dd := d.(type) {
	case dist.PointMass:
		return ratio(dd.At)
	case *dist.Mixture:
		v := 0.0
		for _, c := range dd.Components() {
			v += c.W * ExpectedCRPrime(p, c.D)
		}
		return v
	case *dist.Empirical:
		var sum numeric.KahanSum
		for _, y := range dd.Values() {
			sum.Add(ratio(y))
		}
		return sum.Sum() / float64(dd.N())
	}
	b := p.B()
	hi := d.Quantile(1 - 1e-9)
	if math.IsInf(hi, 1) {
		hi = 1000 * b
	}
	v, err := numeric.IntegrateSimpson(func(y float64) float64 {
		return ratio(y) * d.PDF(y)
	}, 1e-12, math.Max(hi, b), 1e-9)
	if err != nil {
		v = numeric.IntegrateN(func(y float64) float64 {
			return ratio(y) * d.PDF(y)
		}, 1e-12, math.Max(hi, b), 1<<14)
	}
	return v
}
