// Package idlereduce is a Go implementation of "A Cost Efficient Online
// Algorithm for Automotive Idling Reduction" (Dong, Zeng, Chen — DAC 2014).
//
// A stopped vehicle pays a per-second idling cost while the engine runs
// and a one-time restart cost if it shuts the engine off; with the stop
// length unknown this is the classic ski-rental problem with break-even
// interval B = cost_restart / cost_idling. The paper's contribution — the
// constrained ski-rental problem — assumes two statistics of the
// stop-length distribution are known, the partial expectation of short
// stops mu_B- and the long-stop probability q_B+, and derives the online
// policy minimizing the worst-case expected competitive ratio over all
// consistent distributions. The optimum is always one of four vertex
// strategies (DET, TOI, b-DET, N-Rand), selected in closed form.
//
// This package is a facade over the implementation packages:
//
//	internal/skirental  — policies, competitive analysis, the proposed selector
//	internal/costmodel  — Appendix C break-even derivation
//	internal/fleet      — synthetic NREL-substitute driving data
//	internal/simulator  — plays policies over stop traces, costs in cents
//	internal/analysis   — worst-case searches, region maps, sweeps
//	internal/experiments— one driver per paper table/figure
//
// Quick start:
//
//	costs, _ := idlereduce.FordFusion2011(3.50, true).Costs()
//	policy, _ := idlereduce.PolicyFromStops(costs.B(), observedStops)
//	x := policy.Threshold(rng) // idle x seconds, then shut off
package idlereduce

import (
	"math/rand/v2"

	"idlereduce/internal/analysis"
	"idlereduce/internal/costmodel"
	"idlereduce/internal/skirental"
)

// Policy is an online idling strategy; see internal/skirental.Policy.
type Policy = skirental.Policy

// Stats holds the constrained statistics (mu_B-, q_B+).
type Stats = skirental.Stats

// Vehicle is the Appendix C cost-model vehicle description.
type Vehicle = costmodel.Vehicle

// CostRatio pairs the idling rate with the restart cost; its B method
// returns the break-even interval.
type CostRatio = costmodel.CostRatio

// Break-even constants from the paper's evaluation.
const (
	// BreakEvenSSV is the published minimum break-even interval for
	// stop-start vehicles (seconds).
	BreakEvenSSV = costmodel.PaperBreakEvenSSV
	// BreakEvenConventional is the published estimate for vehicles
	// without a stop-start system.
	BreakEvenConventional = costmodel.PaperBreakEvenConventional
)

// FordFusion2011 returns the Argonne test vehicle of Appendix C.
func FordFusion2011(fuelUSDPerGallon float64, hasSSS bool) Vehicle {
	return costmodel.NewFordFusion2011(fuelUSDPerGallon, hasSSS)
}

// PolicyFromStats builds the paper's proposed policy for break-even
// interval b and known statistics s.
func PolicyFromStats(b float64, s Stats) (Policy, error) {
	return skirental.NewConstrained(b, s)
}

// PolicyFromStops builds the proposed policy, estimating the statistics
// from an observed stop-length sample.
func PolicyFromStops(b float64, stops []float64) (Policy, error) {
	return skirental.NewConstrainedFromStops(b, stops)
}

// Baseline constructors, exported for comparisons.
var (
	// TOI turns the engine off immediately at every stop.
	TOI = func(b float64) Policy { return skirental.NewTOI(b) }
	// NEV never turns the engine off.
	NEV = func(b float64) Policy { return skirental.NewNEV(b) }
	// DET idles for exactly B seconds before shutting off.
	DET = func(b float64) Policy { return skirental.NewDET(b) }
	// NRand randomizes the threshold with the e/(e-1)-competitive density.
	NRand = func(b float64) Policy { return skirental.NewNRand(b) }
	// MOMRand is the first-moment randomized baseline; mu is the mean
	// stop length.
	MOMRand = func(b, mu float64) Policy { return skirental.NewMOMRand(b, mu) }
)

// EvaluateCR returns the expected competitive ratio of a policy on a stop
// sequence using analytic per-stop expectations.
func EvaluateCR(p Policy, stops []float64) float64 {
	return skirental.TraceCR(p, stops)
}

// SimulateCR plays the policy over the stops with rng (randomized
// policies draw one threshold per stop) and returns total online cost,
// total clairvoyant cost (both in break-even-normalized seconds).
func SimulateCR(p Policy, stops []float64, rng *rand.Rand) (online, offline float64) {
	return skirental.TraceCost(p, stops, rng)
}

// OptimalPolicyLP computes the numerically minimax-optimal randomized
// policy for the statistics by solving the discretized game of eq. 16
// over unrestricted threshold mixtures ("LP-OPT").
//
// Reproduction finding: this policy matches the paper's Proposed policy
// in the DET and TOI regions but is strictly better (lower worst-case CR)
// wherever the paper's selector picks b-DET or N-Rand; see EXPERIMENTS.md.
// nGrid controls the discretization (64 is a good default).
func OptimalPolicyLP(b float64, s Stats, nGrid int) (Policy, error) {
	res, err := analysis.MinimaxLP(b, s, nGrid)
	if err != nil {
		return nil, err
	}
	return res.Policy(b)
}
