package simulator

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"idlereduce/internal/costmodel"
	"idlereduce/internal/dist"
	"idlereduce/internal/skirental"
)

// testCosts: idling 0.0258 cents/s (the Appendix C value) with restart
// chosen so B = 28 exactly.
var testCosts = costmodel.CostRatio{
	IdlingCentsPerSec: 0.0258,
	RestartCents:      0.0258 * 28,
}

func simRNG() *rand.Rand { return rand.New(rand.NewPCG(11, 13)) }

func TestRunDETKnownCosts(t *testing.T) {
	stops := []float64{10, 30, 5} // short, long, short for B=28
	res, err := Run(Config{Costs: testCosts, Policy: skirental.NewDET(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	// Abstract units: online 10 + 56 + 5 = 71; offline 10 + 28 + 5 = 43.
	if res.OnlineSec != 71 || res.OfflineSec != 43 {
		t.Errorf("seconds (%v, %v) want (71, 43)", res.OnlineSec, res.OfflineSec)
	}
	rate := testCosts.IdlingCentsPerSec
	if res.OnlineCents != 71*rate || res.OfflineCents != 43*rate {
		t.Errorf("cents (%v, %v) want (%v, %v)", res.OnlineCents, res.OfflineCents, 71*rate, 43*rate)
	}
	if res.Restarts != 1 {
		t.Errorf("restarts %d want 1", res.Restarts)
	}
	if res.CR() != 71.0/43.0 {
		t.Errorf("CR %v", res.CR())
	}
	if res.IdleSec != 10+28+5 {
		t.Errorf("idle %v", res.IdleSec)
	}
}

func TestRunMatchesAbstractSkiRental(t *testing.T) {
	// Every stop's outcome is eq. 2–3 at the policy's B, bit for bit,
	// restart edge cases included.
	stops := []float64{1, 27.999, 28, 28.001, 100, 3, 0}
	for _, p := range []skirental.Policy{
		skirental.NewTOI(28), skirental.NewDET(28), skirental.NewBDet(28, 11),
	} {
		res, err := Run(Config{Costs: testCosts, Policy: p}, stops, simRNG())
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range res.Stops {
			on, opt := skirental.OnlineCost(out.Threshold, stops[i], 28), skirental.OfflineCost(stops[i], 28)
			if math.Float64bits(out.Online) != math.Float64bits(on) || math.Float64bits(out.Opt) != math.Float64bits(opt) {
				t.Errorf("%s stop %d: (%v, %v) want (%v, %v)", p.Name(), i, out.Online, out.Opt, on, opt)
			}
		}
	}
}

func TestRunNEVNeverRestarts(t *testing.T) {
	stops := []float64{100, 500, 3}
	res, err := Run(Config{Costs: testCosts, Policy: skirental.NewNEV(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 0 {
		t.Errorf("NEV restarted %d times", res.Restarts)
	}
	if math.Abs(res.IdleSec-603) > 1e-9 {
		t.Errorf("idle %v want 603", res.IdleSec)
	}
}

func TestRunTOIAlwaysRestarts(t *testing.T) {
	stops := []float64{5, 10, 200}
	res, err := Run(Config{Costs: testCosts, Policy: skirental.NewTOI(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 3 {
		t.Errorf("TOI restarts %d want 3", res.Restarts)
	}
	if res.IdleSec != 0 {
		t.Errorf("TOI idled %v s", res.IdleSec)
	}
}

func TestRunConfigValidation(t *testing.T) {
	det := skirental.NewDET(28)
	cases := map[string]Config{
		"nil policy": {Costs: testCosts},
		"zero rate":  {Costs: costmodel.CostRatio{RestartCents: 1}, Policy: det},
		"mismatched B": {
			Costs:  costmodel.CostRatio{IdlingCentsPerSec: 1, RestartCents: 50},
			Policy: det,
		},
		"NaN rate":         {Costs: costmodel.CostRatio{IdlingCentsPerSec: math.NaN(), RestartCents: 28}, Policy: det},
		"NaN restart":      {Costs: costmodel.CostRatio{IdlingCentsPerSec: 1, RestartCents: math.NaN()}, Policy: det},
		"infinite restart": {Costs: costmodel.CostRatio{IdlingCentsPerSec: 1, RestartCents: math.Inf(1)}, Policy: det},
		"B overflows":      {Costs: costmodel.CostRatio{IdlingCentsPerSec: 1e-300, RestartCents: 1e300}, Policy: det},
		"NaN policy B":     {Costs: testCosts, Policy: skirental.NewDET(math.NaN())},
	}
	for name, cfg := range cases {
		if _, err := Run(cfg, []float64{5}, simRNG()); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: want ErrConfig, got %v", name, err)
		}
	}
}

func TestRunRejectsBadStops(t *testing.T) {
	cfg := Config{Costs: testCosts, Policy: skirental.NewDET(28)}
	if _, err := Run(cfg, []float64{-1}, simRNG()); err == nil {
		t.Error("want error for negative stop")
	}
	if _, err := Run(cfg, []float64{math.NaN()}, simRNG()); err == nil {
		t.Error("want error for NaN stop")
	}
}

func TestRunRandomizedPolicyConverges(t *testing.T) {
	// Mean metered CR of N-Rand over many stops approaches e/(e-1)
	// because every stop's expected cost is e/(e-1)·offline.
	stops := make([]float64, 40_000)
	rng := simRNG()
	for i := range stops {
		stops[i] = 1 + rng.Float64()*120
	}
	res, err := Run(Config{Costs: testCosts, Policy: skirental.NewNRand(28)}, stops, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := math.E / (math.E - 1)
	if math.Abs(res.CR()-want) > 0.02 {
		t.Errorf("CR %v want ≈%v", res.CR(), want)
	}
}

// TestRunStopOutcomes checks, stop by stop, that each outcome tells
// what the engine did: a shut-off stop idles exactly its threshold and
// pays B on top, any other stop idles its whole length, and the run's
// idle and restart totals add them up.
func TestRunStopOutcomes(t *testing.T) {
	// DET at B=28: 5 and 20 stay idling, 28 and 200 shut off (y >= x).
	stops := []float64{5, 28, 200, 20}
	res, err := Run(Config{Costs: testCosts, Policy: skirental.NewDET(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stops) != len(stops) {
		t.Fatalf("%d outcomes for %d stops", len(res.Stops), len(stops))
	}
	idle, restarts := 0.0, 0
	for i, out := range res.Stops {
		if out.Length != stops[i] || out.Threshold != 28 {
			t.Errorf("stop %d: length %v threshold %v", i, out.Length, out.Threshold)
		}
		if out.Restarted != (out.Length >= out.Threshold) {
			t.Errorf("stop %d: restarted %v for length %v at threshold %v", i, out.Restarted, out.Length, out.Threshold)
		}
		if out.Restarted {
			if out.Idle != out.Threshold || out.Online != out.Threshold+28 {
				t.Errorf("stop %d: shut off but idled %v, online %v", i, out.Idle, out.Online)
			}
			restarts++
		} else if out.Idle != out.Length || out.Online != out.Length {
			t.Errorf("stop %d: drove on but idled %v, online %v", i, out.Idle, out.Online)
		}
		idle += out.Idle
	}
	if res.IdleSec != idle || res.Restarts != restarts || restarts != 2 {
		t.Errorf("totals: idle %v restarts %d, outcomes sum to idle %v restarts %d", res.IdleSec, res.Restarts, idle, restarts)
	}
}

func TestFuelSavedVsNEV(t *testing.T) {
	stops := []float64{100, 200}
	nev, err := Run(Config{Costs: testCosts, Policy: skirental.NewNEV(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	toi, err := Run(Config{Costs: testCosts, Policy: skirental.NewTOI(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	// NEV cost = 300 s idle; TOI cost = 2 restarts = 56 s-equivalents.
	if nev.OnlineSec-toi.OnlineSec != 300-56 {
		t.Errorf("saved %v s want %v", nev.OnlineSec-toi.OnlineSec, 300-56)
	}
	want := (300 - 56) * testCosts.IdlingCentsPerSec
	if saved := nev.OnlineCents - toi.OnlineCents; math.Abs(saved-want) > 1e-9 {
		t.Errorf("saved %v cents want %v", saved, want)
	}
}

// TestCompareOnTrace plays several policies over one trace. Every
// stop's online cost is at least its offline cost, and rounding to
// nearest is monotone, so each run's CR is at least 1 with no slack.
func TestCompareOnTrace(t *testing.T) {
	policies := []skirental.Policy{
		skirental.NewTOI(28), skirental.NewDET(28), skirental.NewNRand(28),
	}
	stops := []float64{5, 80, 20, 300}
	results := make(map[string]*Result)
	for _, p := range policies {
		r, err := Run(Config{Costs: testCosts, Policy: p}, stops, simRNG())
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Stops) != 4 {
			t.Errorf("%s: stops %d", p.Name(), len(r.Stops))
		}
		if r.CR() < 1 {
			t.Errorf("%s: CR %v below 1", p.Name(), r.CR())
		}
		results[p.Name()] = r
	}
	// The same seed must reproduce the randomized run.
	again, err := Run(Config{Costs: testCosts, Policy: skirental.NewNRand(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	if again.OnlineCents != results["N-Rand"].OnlineCents {
		t.Error("same seed should reproduce randomized results")
	}
}

// massesOf prices idle seconds and restarts with the Argonne emission
// masses of Appendix C.2.3: THC, NOx and CO in mg.
func massesOf(idleSec float64, restarts int) (thc, nox, co float64) {
	r := float64(restarts)
	return idleSec*costmodel.IdlingTHCMgPerSec + r*costmodel.RestartTHCMg,
		idleSec*costmodel.IdlingNOxMgPerSec + r*costmodel.RestartNOxMg,
		idleSec*costmodel.IdlingCOMgPerSec + r*costmodel.RestartCOMg
}

func TestEmissionsOfKnownCycle(t *testing.T) {
	// DET on {10, 30}: idles 10+28 = 38 s, restarts once.
	res, err := Run(Config{Costs: testCosts, Policy: skirental.NewDET(28)}, []float64{10, 30}, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleSec != 38 || res.Restarts != 1 {
		t.Fatalf("idle %v restarts %d want 38, 1", res.IdleSec, res.Restarts)
	}
	thc, nox, co := massesOf(res.IdleSec, res.Restarts)
	wantTHC := 38*costmodel.IdlingTHCMgPerSec + costmodel.RestartTHCMg
	wantNOx := 38*costmodel.IdlingNOxMgPerSec + costmodel.RestartNOxMg
	wantCO := 38*costmodel.IdlingCOMgPerSec + costmodel.RestartCOMg
	if math.Abs(thc-wantTHC) > 1e-9 || math.Abs(nox-wantNOx) > 1e-9 || math.Abs(co-wantCO) > 1e-9 {
		t.Errorf("emissions {%v %v %v}, want {%v %v %v}", thc, nox, co, wantTHC, wantNOx, wantCO)
	}
}

func TestNEVEmissionsReference(t *testing.T) {
	// Never turning off idles every stop through: 300 s, no restart.
	res, err := Run(Config{Costs: testCosts, Policy: skirental.NewNEV(28)}, []float64{100, 200}, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	if _, nox, _ := massesOf(res.IdleSec, res.Restarts); math.Abs(nox-300*costmodel.IdlingNOxMgPerSec) > 1e-9 {
		t.Errorf("NEV NOx %v", nox)
	}
}

func TestCOTensionOnShortStops(t *testing.T) {
	// Appendix C's anti-idling objection: on short stops TOI emits far
	// more CO than idling through (1253 mg/restart vs 0.108 mg/s).
	masses := func(pol skirental.Policy, stops []float64) (thc, co float64) {
		t.Helper()
		res, err := Run(Config{Costs: testCosts, Policy: pol}, stops, simRNG())
		if err != nil {
			t.Fatal(err)
		}
		thc, _, co = massesOf(res.IdleSec, res.Restarts)
		return thc, co
	}
	short := []float64{15, 20, 12}
	_, co := masses(skirental.NewTOI(28), short)
	_, coNEV := masses(skirental.NewNEV(28), short)
	if co < 100*coNEV {
		t.Errorf("TOI CO %v should dwarf idling-through CO %v on short stops", co, coNEV)
	}
	// But THC and fuel flip on long stops: idling 600 s emits more THC
	// than one restart.
	thc, _ := masses(skirental.NewTOI(28), []float64{600})
	thcNEV, _ := masses(skirental.NewNEV(28), []float64{600})
	if thc > thcNEV {
		t.Errorf("restart THC %v should beat 600 s idling THC %v", thc, thcNEV)
	}
}

// lognormalTrace is n stops drawn from a lognormal with mean 30 s and
// coefficient of variation 1.5, straddling B=28.
func lognormalTrace(n int) []float64 {
	d := dist.NewLogNormalMeanCV(30, 1.5)
	rng := rand.New(rand.NewPCG(17, 19))
	stops := make([]float64, n)
	for i := range stops {
		stops[i] = d.Sample(rng)
	}
	return stops
}

// TestRunTotalsEqualTraceCost: a run's totals, and its CR, are
// skirental.TraceCost's on the same draws, bit for bit, and a second
// run with the same seed reproduces them.
func TestRunTotalsEqualTraceCost(t *testing.T) {
	stops := lognormalTrace(100_000)
	rate := testCosts.IdlingCentsPerSec
	for _, p := range []skirental.Policy{
		skirental.NewNRand(28), skirental.NewDET(28), skirental.NewTOI(28), skirental.NewBDet(28, 11),
	} {
		on, off := skirental.TraceCost(p, stops, simRNG())
		for pass := 0; pass < 2; pass++ {
			res, err := Run(Config{Costs: testCosts, Policy: p}, stops, simRNG())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.OnlineSec) != math.Float64bits(on) || math.Float64bits(res.OfflineSec) != math.Float64bits(off) {
				t.Errorf("%s pass %d: seconds (%v, %v), TraceCost (%v, %v)", p.Name(), pass, res.OnlineSec, res.OfflineSec, on, off)
			}
			if res.CR() != on/off {
				t.Errorf("%s pass %d: CR %v, TraceCost's %v", p.Name(), pass, res.CR(), on/off)
			}
			if res.OnlineCents != on*rate || res.OfflineCents != off*rate {
				t.Errorf("%s pass %d: cents (%v, %v) are not the totals priced once", p.Name(), pass, res.OnlineCents, res.OfflineCents)
			}
		}
	}
}

// detPolicy28 is a helper for cross-runner comparisons.
func detPolicy28() skirental.Policy { return skirental.NewDET(28) }
