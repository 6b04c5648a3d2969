package costmodel

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestIdleFuelRegression(t *testing.T) {
	// Eq. 45 at D = 2.5 L: 0.3644*2.5 + 0.5188 = 1.4298 L/h.
	got := IdleFuelLitersPerHour(2.5)
	if math.Abs(got-1.4298) > 1e-12 {
		t.Errorf("got %v want 1.4298", got)
	}
}

func TestIdlingCostMatchesPaper(t *testing.T) {
	// Appendix C.1: 0.279 cc/s at $3.5/gal => 0.0258 cents/s.
	v := NewFordFusion2011(3.5, true)
	got := v.IdlingCostCentsPerSec()
	if math.Abs(got-0.0258) > 0.0001 {
		t.Errorf("idling cost %v cents/s, paper reports 0.0258", got)
	}
}

func TestEffectiveIdleRateFallback(t *testing.T) {
	v := Vehicle{DisplacementL: 2.5}
	// No measured rate: eq. 45 gives 1.4298 L/h = 0.39717 cc/s.
	want := 1.4298 * 1000 / 3600
	if got := v.EffectiveIdleRateCCPerSec(); math.Abs(got-want) > 1e-9 {
		t.Errorf("got %v want %v", got, want)
	}
	v.IdleRateCCPerSec = 0.279
	if got := v.EffectiveIdleRateCCPerSec(); got != 0.279 {
		t.Errorf("measured rate not preferred: %v", got)
	}
}

func TestBreakEvenSSVNearPaper(t *testing.T) {
	v := NewFordFusion2011(3.5, true)
	bd, err := v.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	if bd.StarterSec != 0 {
		t.Errorf("SSV starter wear must be 0, got %v", bd.StarterSec)
	}
	// Paper floors its component sum to the headline minimum of 28 s.
	if b := bd.TotalSec(); b < PaperBreakEvenSSV || b > PaperBreakEvenSSV+2 {
		t.Errorf("SSV B = %v, want within [28, 30]", b)
	}
}

func TestBreakEvenConventionalNearPaper(t *testing.T) {
	v := NewFordFusion2011(3.5, false)
	bd, err := v.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	if bd.StarterSec <= 0 {
		t.Error("conventional starter wear must be positive")
	}
	// Paper's starter band: 19.38 to 155.04 s; our minimum-cost starter
	// must sit at the low end.
	if bd.StarterSec < 19 || bd.StarterSec > 156 {
		t.Errorf("starter %v s outside the paper's band", bd.StarterSec)
	}
	if b := bd.TotalSec(); b < PaperBreakEvenConventional || b > PaperBreakEvenConventional+2.5 {
		t.Errorf("conventional B = %v, want within [47, 49.5]", b)
	}
}

func TestBreakEvenBatteryBand(t *testing.T) {
	// Paper: battery cost per start between 0.4841 and 0.9713 cents;
	// B_battery at least 18.76 s. Check the 2-year (worst) warranty.
	v := NewFordFusion2011(3.5, true)
	v.BatteryWarrantyYears = 2
	bd, err := v.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	idling := v.IdlingCostCentsPerSec()
	centsPerStart := bd.BatterySec * idling
	if centsPerStart < 0.48 || centsPerStart > 0.98 {
		t.Errorf("battery cost/start %v cents outside paper band [0.4841, 0.9713]", centsPerStart)
	}
	if bd.BatterySec < 18.5 {
		t.Errorf("battery B %v s below the paper's 18.76 s floor", bd.BatterySec)
	}
}

func TestEmissionComponentNegligible(t *testing.T) {
	// Paper: NOx tax equivalence ~0.14 s of idling. With the Swedish
	// price expressed in the paper's own dollar-figure arithmetic the
	// component must stay well below a second.
	v := NewFordFusion2011(3.5, false)
	bd, err := v.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	if bd.EmissionSec < 0 || bd.EmissionSec > 0.5 {
		t.Errorf("emission component %v s, expected ≈0.1 s", bd.EmissionSec)
	}
}

func TestBreakEvenErrors(t *testing.T) {
	var v Vehicle // everything zero
	if _, err := v.BreakEven(); !errors.Is(err, ErrBadVehicle) {
		t.Errorf("want ErrBadVehicle, got %v", err)
	}
	v = NewFordFusion2011(3.5, false)
	v.StarterLifetimeStarts = 0
	if _, err := v.BreakEven(); !errors.Is(err, ErrBadVehicle) {
		t.Errorf("want ErrBadVehicle for zero starter lifetime, got %v", err)
	}
	v = NewFordFusion2011(3.5, true)
	v.BatteryWarrantyYears = 0
	if _, err := v.BreakEven(); !errors.Is(err, ErrBadVehicle) {
		t.Errorf("want ErrBadVehicle for zero warranty, got %v", err)
	}
}

func TestCostRatioRoundTrip(t *testing.T) {
	v := NewFordFusion2011(3.5, true)
	cr, err := v.Costs()
	if err != nil {
		t.Fatal(err)
	}
	bd, _ := v.BreakEven()
	if math.Abs(cr.B()-bd.TotalSec()) > 1e-9 {
		t.Errorf("CostRatio.B() = %v, breakdown total %v", cr.B(), bd.TotalSec())
	}
}

func TestBreakdownString(t *testing.T) {
	bd := Breakdown{FuelSec: 10, StarterSec: 19.38, BatterySec: 18.76, EmissionSec: 0.14}
	s := bd.String()
	for _, frag := range []string{"fuel", "starter", "battery", "emissions", "48.28"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q: %s", frag, s)
		}
	}
}

func TestBreakEvenMonotoneInFuelPrice(t *testing.T) {
	// Property: higher fuel price -> cheaper wear relative to idling ->
	// smaller B (the fuel component is fixed at 10 s, the wear components
	// shrink).
	prop := func(u uint8) bool {
		p1 := 2 + float64(u%50)/10 // $2.0 .. $6.9
		p2 := p1 + 1
		v1 := NewFordFusion2011(p1, false)
		v2 := NewFordFusion2011(p2, false)
		b1, err1 := v1.BreakEven()
		b2, err2 := v2.BreakEven()
		if err1 != nil || err2 != nil {
			return false
		}
		return b2.TotalSec() < b1.TotalSec()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBreakEvenFuelOnlyVehicle(t *testing.T) {
	// A vehicle with no wear components reduces to the 10 s fuel rule.
	v := Vehicle{
		IdleRateCCPerSec:      0.279,
		FuelPriceUSDPerGallon: 3.5,
		HasSSS:                true,
	}
	bd, err := v.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	if bd.TotalSec() != FuelOnlyBreakEven {
		t.Errorf("fuel-only B = %v, want 10", bd.TotalSec())
	}
}

func TestPerStartComponentsMatchBreakdown(t *testing.T) {
	// The per-start component helpers must be consistent with the
	// BreakEven itemization: component cents / idling rate = seconds.
	v := NewFordFusion2011(3.5, false)
	bd, err := v.BreakEven()
	if err != nil {
		t.Fatal(err)
	}
	idling := v.IdlingCostCentsPerSec()
	starter, err := v.StarterCentsPerStart()
	if err != nil {
		t.Fatal(err)
	}
	battery, err := v.BatteryCentsPerStart()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(starter/idling-bd.StarterSec) > 1e-9 {
		t.Errorf("starter %v s vs breakdown %v s", starter/idling, bd.StarterSec)
	}
	if math.Abs(battery/idling-bd.BatterySec) > 1e-9 {
		t.Errorf("battery %v s vs breakdown %v s", battery/idling, bd.BatterySec)
	}
}

// The wear a policy's restarts cost is their count times the per-start
// helpers.
func TestWearOfConventionalVehicle(t *testing.T) {
	v := NewFordFusion2011(3.5, false)
	starter, err := v.StarterCentsPerStart()
	if err != nil {
		t.Fatal(err)
	}
	battery, err := v.BatteryCentsPerStart()
	if err != nil {
		t.Fatal(err)
	}
	// 3 restarts: starter (55+115)*100/34000 and battery 230*100/(4*365*32.43) each.
	wantStarter := 3 * (55.0 + 115.0) * 100 / 34000
	if math.Abs(3*starter-wantStarter) > 1e-9 {
		t.Errorf("starter %v want %v", 3*starter, wantStarter)
	}
	wantBattery := 3 * 230.0 * 100 / (4 * 365 * 32.43)
	if math.Abs(3*battery-wantBattery) > 1e-9 {
		t.Errorf("battery %v want %v", 3*battery, wantBattery)
	}
}

func TestWearOfSSVHasNoStarterWear(t *testing.T) {
	v := NewFordFusion2011(3.5, true)
	starter, err := v.StarterCentsPerStart()
	if err != nil {
		t.Fatal(err)
	}
	if starter != 0 {
		t.Errorf("SSV starter wear %v", starter)
	}
	// A zero starter lifetime is irrelevant when the starter never wears.
	v.StarterLifetimeStarts = 0
	if _, err := v.StarterCentsPerStart(); err != nil {
		t.Errorf("SSV with zero starter lifetime: %v", err)
	}
}

func TestWearOfBadVehicle(t *testing.T) {
	bad := NewFordFusion2011(3.5, false)
	bad.StarterLifetimeStarts = 0
	if _, err := bad.StarterCentsPerStart(); !errors.Is(err, ErrBadVehicle) {
		t.Errorf("want ErrBadVehicle for zero starter lifetime, got %v", err)
	}
	bad2 := NewFordFusion2011(3.5, true)
	bad2.BatteryWarrantyYears = 0
	if _, err := bad2.BatteryCentsPerStart(); !errors.Is(err, ErrBadVehicle) {
		t.Errorf("want ErrBadVehicle for zero warranty, got %v", err)
	}
}
