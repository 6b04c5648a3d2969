package idlereduce_test

import (
	"math"
	"testing"

	"idlereduce"
	"idlereduce/internal/analysis"
	"idlereduce/internal/costmodel"
	"idlereduce/internal/fleet"
	"idlereduce/internal/simulator"
	"idlereduce/internal/skirental"
	"idlereduce/internal/stats"
)

// TestFleetSimulatorAnalysisConsistency drives generated vehicles through
// the physical simulator and checks the metered competitive ratios agree
// with the analytic evaluation the experiments use.
func TestFleetSimulatorAnalysisConsistency(t *testing.T) {
	areas := fleet.DefaultAreas()
	for i := range areas {
		areas[i].Vehicles = 5
	}
	f, err := fleet.GenerateFleet(123, areas...)
	if err != nil {
		t.Fatal(err)
	}
	vehicle := costmodel.NewFordFusion2011(3.5, true)
	costs, err := vehicle.Costs()
	if err != nil {
		t.Fatal(err)
	}
	// Pin the simulator's B to the published 28 s so it matches the
	// analysis policies.
	costs = costmodel.CostRatio{
		IdlingCentsPerSec: costs.IdlingCentsPerSec,
		RestartCents:      costs.IdlingCentsPerSec * costmodel.PaperBreakEvenSSV,
	}
	const b = costmodel.PaperBreakEvenSSV

	for _, v := range f.Vehicles {
		det := skirental.NewDET(b)
		res, err := simulator.Run(simulator.Config{Costs: costs, Policy: det}, v.Stops, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic policy: the metered CR equals the analytic trace
		// CR exactly.
		if want := skirental.TraceCR(det, v.Stops); res.CR() != want {
			t.Fatalf("%s: simulator CR %v vs analytic %v", v.ID, res.CR(), want)
		}
		// Restarts equal the number of stops at least B long.
		long := 0
		for _, y := range v.Stops {
			if y >= b {
				long++
			}
		}
		if res.Restarts != long {
			t.Fatalf("%s: %d restarts, %d long stops", v.ID, res.Restarts, long)
		}
	}
}

// TestSimulatorMatchesFleetEvaluation checks that the per-vehicle
// evaluation (Figure 4) and the simulator report the same CR, bit for
// bit, for the deterministic policies on the same vehicle.
func TestSimulatorMatchesFleetEvaluation(t *testing.T) {
	areas := []fleet.AreaConfig{fleet.Chicago}
	areas[0].Vehicles = 3
	f, err := fleet.GenerateFleet(9, areas...)
	if err != nil {
		t.Fatal(err)
	}
	costs := costmodel.CostRatio{IdlingCentsPerSec: 0.0258, RestartCents: 0.0258 * 28}
	for _, v := range f.Vehicles {
		vcr, err := analysis.EvaluateVehicle(28, v)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate the deterministic members of the lineup and compare
		// the metered CRs to the evaluation's.
		for name, p := range map[string]skirental.Policy{
			"TOI": skirental.NewTOI(28),
			"NEV": skirental.NewNEV(28),
			"DET": skirental.NewDET(28),
		} {
			res, err := simulator.Run(simulator.Config{Costs: costs, Policy: p}, v.Stops, stats.NewRNG(7))
			if err != nil {
				t.Fatal(err)
			}
			if res.CR() != vcr.CR[name] {
				t.Errorf("%s/%s: simulator %v vs evaluation %v", v.ID, name, res.CR(), vcr.CR[name])
			}
		}
	}
}

// TestPublicFacadeRoundTrip exercises the exported API end to end.
func TestPublicFacadeRoundTrip(t *testing.T) {
	stopsSeq := []float64{10, 40, 5, 200, 12, 33, 7}
	costs, err := vehicleCosts()
	if err != nil {
		t.Fatal(err)
	}
	b := costs.B()
	pol, err := policyFromStops(b, stopsSeq)
	if err != nil {
		t.Fatal(err)
	}
	cr := skirental.TraceCR(pol, stopsSeq)
	if cr < 1 || cr > math.E/(math.E-1)+1e-9 {
		t.Errorf("facade CR %v out of range", cr)
	}
	rng := stats.NewRNG(3)
	on, off := skirental.TraceCost(pol, stopsSeq, rng)
	if on < off {
		t.Errorf("online %v below offline %v", on, off)
	}
}

// Thin wrappers so the integration test exercises the same paths as the
// facade without importing it under a different name.
func vehicleCosts() (costmodel.CostRatio, error) {
	return costmodel.NewFordFusion2011(3.5, true).Costs()
}

func policyFromStops(b float64, stops []float64) (skirental.Policy, error) {
	return skirental.NewConstrainedFromStops(b, stops)
}

func facadeNRand() idlereduce.Policy { return idlereduce.NRand(idlereduce.BreakEvenSSV) }

func facadeSimulate(p idlereduce.Policy, stops []float64) (float64, float64) {
	return idlereduce.SimulateCR(p, stops, stats.NewRNG(11))
}

// TestFacadeSimulateCR exercises the exported Monte Carlo entry point.
func TestFacadeSimulateCR(t *testing.T) {
	stopsSeq := []float64{5, 40, 12, 90}
	p := facadeNRand()
	on, off := facadeSimulate(p, stopsSeq)
	if off != 5+28+12+28 {
		t.Errorf("offline %v", off)
	}
	if on < off {
		t.Errorf("online %v < offline %v", on, off)
	}
}
