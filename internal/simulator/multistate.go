package simulator

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"idlereduce/internal/multislope"
	"idlereduce/internal/numeric"
)

// MultiStateConfig parameterizes a multislope simulation: the powertrain
// ladder, the per-segment policy bundle, and the cents value of one cost
// unit (the multislope problem expresses costs in seconds of full
// idling, so this is the idling rate).
type MultiStateConfig struct {
	Policy            *multislope.Policy
	CentsPerCostUnit  float64
	RecordTransitions bool
}

// MultiStateStop records one stop of a multislope run.
type MultiStateStop struct {
	// Length is the stop length in seconds.
	Length float64
	// DeepestState is the lowest powertrain state reached (0 = stayed
	// at full idle).
	DeepestState int
	// TransitionTimes are the times (from stop start) at which the
	// vehicle moved down one state; len == DeepestState.
	TransitionTimes []float64
	// CostCents is the metered cost of the stop.
	CostCents float64
	// OfflineCents is the clairvoyant cost.
	OfflineCents float64
}

// MultiStateResult aggregates a multislope simulation.
type MultiStateResult struct {
	Stops        []MultiStateStop
	CostCents    float64
	OfflineCents float64
	// TimeInState[i] is the total seconds spent in powertrain state i
	// while stopped.
	TimeInState []float64
	// FullShutdowns counts stops that reached the final (engine-off)
	// state.
	FullShutdowns int
}

// CR returns the realized competitive ratio.
func (r *MultiStateResult) CR() float64 {
	if r.OfflineCents == 0 {
		return 1
	}
	return r.CostCents / r.OfflineCents
}

// ErrMultiState reports invalid multislope simulation input.
var ErrMultiState = errors.New("simulator: invalid multi-state config")

// RunMultiState simulates the policy bundle over the stop sequence.
//
// Per segment semantics, the vehicle moves from state i to i+1 at the
// running maximum of the drawn per-segment switch times (a later segment
// cannot engage before an earlier one physically, but its *cost* clock
// follows its own draw — the two views price identically under the
// additive decomposition, which the tests assert against
// multislope.Policy.CostForStop).
func RunMultiState(cfg MultiStateConfig, stops []float64, rng *rand.Rand) (*MultiStateResult, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrMultiState)
	}
	if !(cfg.CentsPerCostUnit > 0) || math.IsInf(cfg.CentsPerCostUnit, 1) {
		return nil, fmt.Errorf("%w: cents per cost unit %v", ErrMultiState, cfg.CentsPerCostUnit)
	}
	prob := cfg.Policy.Problem()
	nStates := len(prob.Slopes())
	res := &MultiStateResult{TimeInState: make([]float64, nStates)}
	var cost, off numeric.KahanSum

	for i, y := range stops {
		if y < 0 || math.IsNaN(y) {
			return nil, fmt.Errorf("%w: stop %d has length %v", ErrMultiState, i, y)
		}
		xs := cfg.Policy.Thresholds(rng)
		out := MultiStateStop{Length: y}

		// Physical trajectory: running max of the switch draws.
		runMax := 0.0
		prev := 0.0
		for seg, x := range xs {
			runMax = math.Max(runMax, x)
			if runMax >= y {
				// Drove off before engaging this state.
				res.TimeInState[seg] += y - prev
				prev = y
				break
			}
			out.DeepestState = seg + 1
			if cfg.RecordTransitions {
				out.TransitionTimes = append(out.TransitionTimes, runMax)
			}
			res.TimeInState[seg] += runMax - prev
			prev = runMax
		}
		if prev < y {
			res.TimeInState[out.DeepestState] += y - prev
		}
		if out.DeepestState == nStates-1 {
			res.FullShutdowns++
		}

		out.CostCents = cfg.Policy.CostForStop(xs, y) * cfg.CentsPerCostUnit
		out.OfflineCents = prob.OfflineCost(y) * cfg.CentsPerCostUnit
		cost.Add(out.CostCents)
		off.Add(out.OfflineCents)
		res.Stops = append(res.Stops, out)
	}
	res.CostCents = cost.Sum()
	res.OfflineCents = off.Sum()
	return res, nil
}
