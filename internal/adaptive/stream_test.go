package adaptive

import (
	"errors"
	"math"
	"testing"
)

func newTestTracker(t *testing.T, cfg StreamConfig) *Tracker {
	t.Helper()
	tr, err := NewTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStreamConfigValidates(t *testing.T) {
	bad := []StreamConfig{
		{B: 0},
		{B: -1},
		{B: math.NaN()},
		{B: math.Inf(1)},
		{B: 28, Forgetting: -0.5},
		{B: 28, Forgetting: 1.5},
		{B: 28, Forgetting: math.NaN()},
		{B: 28, Forgetting: math.Inf(1)},
		{B: 28, MinObservations: -3},
		{B: 28, Drift: DriftConfig{Threshold: math.NaN()}},
		{B: 28, Drift: DriftConfig{Slack: math.NaN()}},
	}
	for _, cfg := range bad {
		if _, err := NewTracker(cfg); err == nil {
			t.Errorf("NewTracker(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := NewTracker(StreamConfig{B: 28}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestTrackerRefusesDetectorOverflow: at B = 1e300 the moment sums
// hold a 1e300-s stop and a 0-s stop, but the detector's sum of squared
// deviations cannot; the second stop is refused and the stream, which
// must stay snapshottable, is left as it was.
func TestTrackerRefusesDetectorOverflow(t *testing.T) {
	tr := newTestTracker(t, StreamConfig{B: 1e300})
	if _, err := tr.Observe(1e300); err != nil {
		t.Fatal(err)
	}
	before := tr.State()
	if tr.Admits(0) {
		t.Error("Admits(0) after a 1e300-s stop, want a refusal")
	}
	if _, err := tr.Observe(0); !errors.Is(err, ErrConfig) {
		t.Errorf("Observe(0): %v, want ErrConfig", err)
	}
	if after := tr.State(); after != before {
		t.Errorf("refused stop moved the stream: %+v, was %+v", after, before)
	}
	if err := tr.State().Validate(); err != nil {
		t.Errorf("stream state does not validate: %v", err)
	}
}

func TestTrackerMomentsMatchPlainAverages(t *testing.T) {
	// With forgetting 1 the estimates are the plain empirical moments:
	// mu = mean of short stops over ALL stops, q = long-stop fraction.
	tr := newTestTracker(t, StreamConfig{B: 10})
	stops := []float64{2, 4, 6, 50, 8, 100}
	for _, y := range stops {
		if _, err := tr.Observe(y); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if want := (2.0 + 4 + 6 + 8) / 6; math.Abs(st.MuBMinus-want) > 1e-12 {
		t.Errorf("mu = %v, want %v", st.MuBMinus, want)
	}
	if want := 2.0 / 6; math.Abs(st.QBPlus-want) > 1e-12 {
		t.Errorf("q = %v, want %v", st.QBPlus, want)
	}
	if tr.Seen() != 6 {
		t.Errorf("seen = %d, want 6", tr.Seen())
	}
}

func TestTrackerStatsAlwaysFeasible(t *testing.T) {
	// Every counted short stop is at most B, so mu <= B(1-q) must hold
	// after any prefix of any stream — the invariant that lets a
	// re-tune feed Cache.Update without a feasibility failure.
	tr := newTestTracker(t, StreamConfig{B: 28, Forgetting: 0.9})
	stops := []float64{28, 28, 28, 29, 0, 27.999, 28, 1000, 28}
	for i, y := range stops {
		if _, err := tr.Observe(y); err != nil {
			t.Fatal(err)
		}
		st := tr.Stats()
		if st.MuBMinus > 28*(1-st.QBPlus)+1e-9 {
			t.Fatalf("after %d stops: mu %v > B(1-q) %v", i+1, st.MuBMinus, 28*(1-st.QBPlus))
		}
		if err := st.Validate(28); err != nil {
			t.Fatalf("after %d stops: %v", i+1, err)
		}
	}
}

func TestTrackerRejectsBadObservations(t *testing.T) {
	tr := newTestTracker(t, StreamConfig{B: 28})
	if _, err := tr.Observe(5); err != nil {
		t.Fatal(err)
	}
	before := tr.State()
	for _, y := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := tr.Observe(y); err == nil {
			t.Errorf("Observe(%v) accepted", y)
		}
	}
	if after := tr.State(); after != before {
		t.Errorf("rejected observations mutated state: %+v -> %+v", before, after)
	}
}

func TestStepMomentsMatchesObserve(t *testing.T) {
	// The audit replay re-derives transitions with StepMoments; it must
	// agree bit-for-bit with what Observe actually did.
	tr := newTestTracker(t, StreamConfig{B: 28, Forgetting: 0.97})
	stops := []float64{3, 40, 12, 28, 28.0001, 7}
	for _, y := range stops {
		up, err := tr.Observe(y)
		if err != nil {
			t.Fatal(err)
		}
		w2, mu2, q2 := StepMoments(up.PrevWSum, up.PrevMuSum, up.PrevQSum, 0.97, 28, y)
		if math.Float64bits(w2) != math.Float64bits(up.WSum) ||
			math.Float64bits(mu2) != math.Float64bits(up.MuSum) ||
			math.Float64bits(q2) != math.Float64bits(up.QSum) {
			t.Fatalf("StepMoments(%v) = (%v, %v, %v), Observe recorded (%v, %v, %v)",
				y, w2, mu2, q2, up.WSum, up.MuSum, up.QSum)
		}
	}
}

func TestTrackerWarmup(t *testing.T) {
	tr := newTestTracker(t, StreamConfig{B: 28, MinObservations: 3})
	for i := 0; i < 2; i++ {
		up, err := tr.Observe(5)
		if err != nil {
			t.Fatal(err)
		}
		if up.Warm {
			t.Fatalf("warm after %d observations, warmup is 3", i+1)
		}
	}
	up, err := tr.Observe(5)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Warm {
		t.Fatal("not warm after MinObservations")
	}
}

func TestTrackerDriftAlarm(t *testing.T) {
	// A clean regime change on the capped stop length must raise a
	// CUSUM alarm; a steady stream must not.
	cfg := StreamConfig{B: 28, Drift: DriftConfig{Warmup: 20}}
	tr := newTestTracker(t, cfg)
	alarmed := false
	for i := 0; i < 60; i++ {
		y := 5 + float64(i%7) // steady short stops
		up, err := tr.Observe(y)
		if err != nil {
			t.Fatal(err)
		}
		if up.Alarm {
			alarmed = true
		}
	}
	if alarmed {
		t.Fatal("steady stream raised a drift alarm")
	}
	for i := 0; i < 60 && !alarmed; i++ {
		up, err := tr.Observe(40 + float64(i%10)) // long-stop regime
		if err != nil {
			t.Fatal(err)
		}
		alarmed = up.Alarm
	}
	if !alarmed {
		t.Fatal("regime change never alarmed")
	}
}

func TestTrackerStateRoundtrip(t *testing.T) {
	cfg := StreamConfig{B: 28, Forgetting: 0.95, MinObservations: 10, Drift: DriftConfig{Warmup: 15}}
	donor := newTestTracker(t, cfg)
	for i := 0; i < 40; i++ {
		if _, err := donor.Observe(4 + float64(i%9)); err != nil {
			t.Fatal(err)
		}
	}
	replica := newTestTracker(t, cfg)
	if err := replica.RestoreState(donor.State()); err != nil {
		t.Fatal(err)
	}
	// Identical futures: every subsequent observation must produce the
	// same update on both trackers, bit for bit.
	for i := 0; i < 40; i++ {
		y := 30 + float64(i%5)
		a, err := donor.Observe(y)
		if err != nil {
			t.Fatal(err)
		}
		b, err := replica.Observe(y)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("step %d diverged: donor %+v, replica %+v", i, a, b)
		}
	}
}

func TestTrackerStateValidateFailsClosed(t *testing.T) {
	tr := newTestTracker(t, StreamConfig{B: 28})
	bad := []TrackerState{
		{Seen: -1},
		{Seen: 0, WSum: 2},
		{Seen: 1, WSum: math.NaN()},
		{Seen: 1, WSum: 1, MuSum: math.Inf(1)},
		{Seen: 1, WSum: 1, QSum: -2},
		{Seen: 1, WSum: 1, Detector: DetectorState{N: -1}},
		{Seen: 1, WSum: 1, Detector: DetectorState{Mean: math.NaN()}},
		{Seen: 1, WSum: 1, Detector: DetectorState{Monitoring: true, N: 1}},
	}
	for _, s := range bad {
		if err := tr.RestoreState(s); err == nil {
			t.Errorf("RestoreState(%+v) accepted invalid state", s)
		}
	}
}
