package adaptive

import (
	"errors"
	"math"
	"testing"

	"idlereduce/internal/skirental"
)

func TestDriftConfigValidation(t *testing.T) {
	if _, err := NewDetector(DriftConfig{Threshold: -1}); !errors.Is(err, ErrConfig) {
		t.Error("want ErrConfig for negative threshold")
	}
	if _, err := NewDetector(DriftConfig{Warmup: 1}); !errors.Is(err, ErrConfig) {
		t.Error("want ErrConfig for warmup 1")
	}
	// NaN passes a bare x <= 0 test; an infinite threshold never alarms.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for _, c := range []DriftConfig{{Threshold: v}, {Slack: v}} {
			if _, err := NewDetector(c); !errors.Is(err, ErrConfig) {
				t.Errorf("%+v: want ErrConfig, got %v", c, err)
			}
		}
	}
	d, err := NewDetector(DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.cfg.Threshold != 10 || d.cfg.Slack != 0.5 || d.cfg.Warmup != 50 {
		t.Errorf("defaults not applied: %+v", d.cfg)
	}
}

func TestDetectorNoFalseAlarmOnStationary(t *testing.T) {
	d, _ := NewDetector(DriftConfig{})
	rng := testRNG()
	alarms := 0
	for i := 0; i < 5000; i++ {
		if d.Observe(10 + rng.NormFloat64()*3) {
			alarms++
		}
	}
	if alarms > 2 {
		t.Errorf("%d false alarms on stationary data", alarms)
	}
}

func TestDetectorFiresOnMeanShift(t *testing.T) {
	d, _ := NewDetector(DriftConfig{})
	rng := testRNG()
	for i := 0; i < 200; i++ {
		if d.Observe(10 + rng.NormFloat64()*3) {
			t.Fatal("premature alarm")
		}
	}
	if !d.Monitoring() {
		t.Fatal("not monitoring after 200 points")
	}
	// Shift the mean by 3 sigma: must fire within ~30 observations.
	fired := -1
	for i := 0; i < 100; i++ {
		if d.Observe(19 + rng.NormFloat64()*3) {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("3-sigma shift never detected")
	}
	if fired > 40 {
		t.Errorf("detection took %d observations", fired)
	}
	// After the alarm the detector re-baselines.
	if d.Monitoring() {
		t.Error("detector should re-baseline after an alarm")
	}
}

func TestDetectorIgnoresNonFinite(t *testing.T) {
	d, _ := NewDetector(DriftConfig{Warmup: 5})
	for i := 0; i < 10; i++ {
		d.Observe(1)
	}
	if d.Observe(math.NaN()) || d.Observe(math.Inf(1)) {
		t.Error("non-finite input fired an alarm")
	}
}

func TestDriftPolicySwitchesFasterThanForgetting(t *testing.T) {
	// Suburb -> gridlock: the drift-resetting policy should reach TOI in
	// fewer post-change stops than plain exponential forgetting.
	mkStops := func() []float64 {
		rng := testRNG()
		var stops []float64
		for i := 0; i < 2000; i++ {
			stops = append(stops, 2+rng.Float64()*8)
		}
		for i := 0; i < 2000; i++ {
			stops = append(stops, 300+rng.Float64()*500)
		}
		return stops
	}
	stops := mkStops()

	switchPointDrift := func() int {
		dp, err := NewWithDriftDetection(Config{B: 28}, DriftConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rng := testRNG()
		for i, y := range stops {
			dp.Threshold(rng)
			if err := dp.Observe(y); err != nil {
				t.Fatal(err)
			}
			if i >= 2000 && dp.Choice() == skirental.ChoiceTOI {
				return i - 2000
			}
		}
		return len(stops)
	}
	switchPointForgetting := func() int {
		p, err := New(Config{B: 28, Forgetting: 0.995})
		if err != nil {
			t.Fatal(err)
		}
		rng := testRNG()
		for i, y := range stops {
			p.Threshold(rng)
			if err := p.Observe(y); err != nil {
				t.Fatal(err)
			}
			if i >= 2000 && p.Choice() == skirental.ChoiceTOI {
				return i - 2000
			}
		}
		return len(stops)
	}
	drift := switchPointDrift()
	forget := switchPointForgetting()
	if drift >= forget {
		t.Errorf("drift reset switched after %d stops, forgetting after %d", drift, forget)
	}
	if drift > 300 {
		t.Errorf("drift reset too slow: %d stops", drift)
	}
}

func TestDriftPolicyCountsAlarms(t *testing.T) {
	dp, err := NewWithDriftDetection(Config{B: 28}, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG()
	var stops []float64
	for i := 0; i < 500; i++ {
		stops = append(stops, 3+rng.Float64()*4)
	}
	for i := 0; i < 500; i++ {
		stops = append(stops, 200+rng.Float64()*100)
	}
	if _, _, err := dp.Run(stops, rng); err != nil {
		t.Fatal(err)
	}
	if dp.Drifts < 1 {
		t.Error("regime change never flagged")
	}
	if dp.Drifts > 6 {
		t.Errorf("too many alarms: %d", dp.Drifts)
	}
}

func TestNewWithDriftDetectionErrors(t *testing.T) {
	if _, err := NewWithDriftDetection(Config{}, DriftConfig{}); err == nil {
		t.Error("want error for bad base config")
	}
	if _, err := NewWithDriftDetection(Config{B: 28}, DriftConfig{Slack: -1}); err == nil {
		t.Error("want error for bad drift config")
	}
}

// TestDriftPolicyRunDuringWarmupEqualsTraceCost: the drift-resetting
// policy's Run sums the same Play outcomes as TraceCost while it still
// plays N-Rand.
func TestDriftPolicyRunDuringWarmupEqualsTraceCost(t *testing.T) {
	stops := warmupTrace()
	dp, err := NewWithDriftDetection(Config{B: 28, Warmup: len(stops)}, DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	on, off, err := dp.Run(stops, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	wantOn, wantOff := skirental.TraceCost(skirental.NewNRand(28), stops, testRNG())
	if math.Float64bits(on) != math.Float64bits(wantOn) || math.Float64bits(off) != math.Float64bits(wantOff) {
		t.Errorf("Run (%v, %v), TraceCost (%v, %v)", on, off, wantOn, wantOff)
	}
}
