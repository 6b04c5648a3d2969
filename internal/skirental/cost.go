// Package skirental implements the paper's core contribution: the
// constrained ski-rental formulation of automotive idling reduction.
//
// A stop of unknown length y costs 1 per second while the engine idles;
// shutting the engine off costs a one-time restart equivalent to B seconds
// of idling (the break-even interval, eq. 1). An online policy picks the
// idling threshold x — possibly at random — and pays
//
//	cost_online(x, y) = y        if y < x      (drove off before the threshold)
//	                    x + B    if y >= x     (idled x seconds, then restarted)
//
// against the clairvoyant offline cost min(y, B). The package provides the
// classic policies (TOI, NEV, DET, b-DET, N-Rand, MOM-Rand), the
// constrained statistics (mu_B-, q_B+) of Section 3, and the proposed
// optimal policy of Section 4 that selects among the four vertex
// strategies, plus an independent LP-based selector used for verification.
package skirental

import (
	"errors"
	"fmt"
	"math"

	"idlereduce/internal/dist"
	"idlereduce/internal/numeric"
)

// OfflineCost is eq. 2: the clairvoyant cost min(y, B).
func OfflineCost(y, b float64) float64 {
	if y < b {
		return y
	}
	return b
}

// OnlineCost is eq. 3: the cost of idling threshold x on a stop of
// length y.
func OnlineCost(x, y, b float64) float64 { return Play(x, y, b).Online }

// Stop is one stop of length y played under idling threshold x: what
// the engine did, and the stop's eq. 3 and eq. 2 costs in idle-second
// equivalents.
type Stop struct {
	// Idle is the time spent idling: the whole stop when it ended
	// before the threshold, else the threshold.
	Idle float64
	// Restarted reports that the stop reached the threshold, so the
	// engine was shut off there and restarted on departure.
	Restarted bool
	// Online is eq. 3: Idle, plus B when Restarted.
	Online float64
	// Opt is eq. 2: the clairvoyant min(y, B).
	Opt float64
}

// Play plays one stop of length y under idling threshold x at
// break-even interval b. Every loop that plays a policy over stops
// takes its per-stop costs from here and sums them left to right in
// plain float64, so the simulator, the adaptive play loop and the
// ledger's forgetting-1 sums agree bit for bit.
func Play(x, y, b float64) Stop {
	if y < x {
		return Stop{Idle: y, Online: y, Opt: OfflineCost(y, b)}
	}
	return Stop{Idle: x, Restarted: true, Online: x + b, Opt: OfflineCost(y, b)}
}

// CompetitiveRatio is eq. 4: cost_online / cost_offline for one stop.
// It is +Inf for y == 0 with a restart cost, and 1 for the degenerate
// zero-cost pair.
func CompetitiveRatio(x, y, b float64) float64 {
	on := OnlineCost(x, y, b)
	off := OfflineCost(y, b)
	if off == 0 {
		if on == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return on / off
}

// Stats holds the constrained ski-rental statistics of Section 3.
type Stats struct {
	// MuBMinus is mu_B- (eq. 10): the partial expectation of stops not
	// longer than B.
	MuBMinus float64
	// QBPlus is q_B+ (eq. 11): the probability of a stop longer than B.
	QBPlus float64
}

// ErrBadStats is returned when statistics are outside their feasible
// region: mu_B- in [0, B·(1-q_B+)], q_B+ in [0, 1].
var ErrBadStats = errors.New("skirental: infeasible (mu_B-, q_B+) pair")

// Validate checks feasibility of the statistics for break-even interval b.
func (s Stats) Validate(b float64) error {
	if b <= 0 || math.IsNaN(b) {
		return fmt.Errorf("%w: break-even B=%v must be positive", ErrBadStats, b)
	}
	if s.QBPlus < 0 || s.QBPlus > 1 || math.IsNaN(s.QBPlus) {
		return fmt.Errorf("%w: q_B+ = %v", ErrBadStats, s.QBPlus)
	}
	if s.MuBMinus < 0 || math.IsNaN(s.MuBMinus) {
		return fmt.Errorf("%w: mu_B- = %v", ErrBadStats, s.MuBMinus)
	}
	// Short stops carry mass 1-q_B+ and each is at most B long.
	if s.MuBMinus > b*(1-s.QBPlus)+1e-9 {
		return fmt.Errorf("%w: mu_B- = %v exceeds B(1-q_B+) = %v",
			ErrBadStats, s.MuBMinus, b*(1-s.QBPlus))
	}
	return nil
}

// OfflineCost is eq. 13: the expected clairvoyant cost mu_B- + q_B+·B,
// constant over every distribution consistent with the statistics.
func (s Stats) OfflineCost(b float64) float64 {
	return s.MuBMinus + s.QBPlus*b
}

// StatsOf measures the constrained statistics of a distribution.
func StatsOf(d dist.Distribution, b float64) Stats {
	return Stats{
		MuBMinus: dist.MuBMinus(d, b),
		QBPlus:   dist.QBPlus(d, b),
	}
}

// EstimateStats is the plug-in estimator from an observed stop sample:
// mu_B- as the mean contribution of stops <= B and q_B+ as the fraction
// of stops > B. It returns ErrBadStats for an empty sample.
func EstimateStats(stops []float64, b float64) (Stats, error) {
	if len(stops) == 0 {
		return Stats{}, fmt.Errorf("%w: empty sample", ErrBadStats)
	}
	var short numeric.KahanSum
	long := 0
	for _, y := range stops {
		if y < 0 || math.IsNaN(y) {
			return Stats{}, fmt.Errorf("%w: invalid stop length %v", ErrBadStats, y)
		}
		if y > b {
			long++
		} else {
			short.Add(y)
		}
	}
	n := float64(len(stops))
	return Stats{
		MuBMinus: short.Sum() / n,
		QBPlus:   float64(long) / n,
	}, nil
}
