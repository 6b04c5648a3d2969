package skirental

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"idlereduce/internal/dist"
)

const testB = 28.0

func TestOfflineCost(t *testing.T) {
	cases := []struct{ y, want float64 }{
		{0, 0}, {10, 10}, {27.999, 27.999}, {28, 28}, {29, 28}, {1000, 28},
	}
	for _, c := range cases {
		if got := OfflineCost(c.y, testB); got != c.want {
			t.Errorf("OfflineCost(%v) = %v want %v", c.y, got, c.want)
		}
	}
}

func TestOnlineCost(t *testing.T) {
	cases := []struct{ x, y, want float64 }{
		{10, 5, 5},    // drove off before threshold
		{10, 10, 38},  // restart exactly at threshold
		{10, 100, 38}, // long stop: idled 10, paid restart
		{0, 50, 28},   // TOI behaviour
		{28, 27, 27},  // DET on short stop: offline-optimal
		{28, 29, 56},  // DET on long stop: pays 2B
	}
	for _, c := range cases {
		if got := OnlineCost(c.x, c.y, testB); got != c.want {
			t.Errorf("OnlineCost(%v, %v) = %v want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestPlay(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		x, y float64
		want Stop
	}{
		{28, 10, Stop{Idle: 10, Online: 10, Opt: 10}},                   // drove off before threshold
		{28, 28, Stop{Idle: 28, Restarted: true, Online: 56, Opt: 28}},  // a stop of exactly x restarts
		{10, 100, Stop{Idle: 10, Restarted: true, Online: 38, Opt: 28}}, // idled 10, paid restart
		{0, 0, Stop{Restarted: true, Online: 28}},                       // TOI pays B even on a 0-s stop
		{5, 0, Stop{}}, // 0-s stop under a positive threshold
		{inf, 1000, Stop{Idle: 1000, Online: 1000, Opt: 28}}, // NEV idles through
	}
	for _, c := range cases {
		if got := Play(c.x, c.y, testB); got != c.want {
			t.Errorf("Play(%v, %v) = %+v want %+v", c.x, c.y, got, c.want)
		}
	}
}

func TestCompetitiveRatioWorstCaseDET(t *testing.T) {
	// Classic result: threshold B has cr exactly 2 at y = B (eq. 6).
	if got := CompetitiveRatio(testB, testB, testB); got != 2 {
		t.Errorf("cr(B, B) = %v want 2", got)
	}
	// And never more than 2 anywhere.
	for _, y := range []float64{0.1, 1, 27, 28, 29, 100, 1e6} {
		if got := CompetitiveRatio(testB, y, testB); got > 2+1e-12 {
			t.Errorf("cr(B, %v) = %v > 2", y, got)
		}
	}
}

func TestCompetitiveRatioZeroStop(t *testing.T) {
	if got := CompetitiveRatio(0, 0, testB); !math.IsInf(got, 1) {
		t.Errorf("restart on zero stop should be Inf, got %v", got)
	}
	if got := CompetitiveRatio(math.Inf(1), 0, testB); got != 1 {
		t.Errorf("zero-cost pair should be 1, got %v", got)
	}
}

func TestOnlineCostDominatesOffline(t *testing.T) {
	// Property: online cost >= offline cost for every (x, y).
	prop := func(xu, yu uint16) bool {
		x := float64(xu) / 100
		y := float64(yu) / 100
		return OnlineCost(x, y, testB) >= OfflineCost(y, testB)-1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsValidate(t *testing.T) {
	good := []Stats{
		{0, 0}, {0, 1}, {28, 0}, {14, 0.5}, {5, 0.2},
	}
	for _, s := range good {
		if err := s.Validate(testB); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []Stats{
		{-1, 0}, {0, -0.1}, {0, 1.1}, {28, 0.5}, {15, 0.5}, // mu > B(1-q)
		{math.NaN(), 0}, {0, math.NaN()},
	}
	for _, s := range bad {
		if err := s.Validate(testB); !errors.Is(err, ErrBadStats) {
			t.Errorf("Validate(%+v) = %v, want ErrBadStats", s, err)
		}
	}
	if err := (Stats{1, 0.1}).Validate(0); !errors.Is(err, ErrBadStats) {
		t.Error("want ErrBadStats for B=0")
	}
}

func TestStatsOfflineCost(t *testing.T) {
	s := Stats{MuBMinus: 10, QBPlus: 0.25}
	if got := s.OfflineCost(testB); got != 10+0.25*28 {
		t.Errorf("offline cost %v", got)
	}
}

func TestStatsOfTwoPoint(t *testing.T) {
	d := dist.TwoPoint(5, 100, 0.3)
	s := StatsOf(d, testB)
	if math.Abs(s.MuBMinus-3.5) > 1e-9 || math.Abs(s.QBPlus-0.3) > 1e-9 {
		t.Errorf("stats %+v", s)
	}
}

func TestEstimateStats(t *testing.T) {
	stops := []float64{10, 20, 30, 100} // two short (<=28), two long
	s, err := EstimateStats(stops, testB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.MuBMinus-7.5) > 1e-12 {
		t.Errorf("mu = %v want 7.5", s.MuBMinus)
	}
	if math.Abs(s.QBPlus-0.5) > 1e-12 {
		t.Errorf("q = %v want 0.5", s.QBPlus)
	}
}

func TestEstimateStatsBoundaryAtB(t *testing.T) {
	// A stop exactly at B counts as short (closed interval).
	s, err := EstimateStats([]float64{28}, testB)
	if err != nil {
		t.Fatal(err)
	}
	if s.MuBMinus != 28 || s.QBPlus != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestEstimateStatsErrors(t *testing.T) {
	if _, err := EstimateStats(nil, testB); !errors.Is(err, ErrBadStats) {
		t.Error("want ErrBadStats for empty")
	}
	if _, err := EstimateStats([]float64{-1}, testB); !errors.Is(err, ErrBadStats) {
		t.Error("want ErrBadStats for negative stop")
	}
	if _, err := EstimateStats([]float64{math.NaN()}, testB); !errors.Is(err, ErrBadStats) {
		t.Error("want ErrBadStats for NaN stop")
	}
}

func TestEstimateStatsAlwaysFeasible(t *testing.T) {
	// Property: estimates from any valid sample pass Validate.
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		stops := make([]float64, len(raw))
		for i, v := range raw {
			stops[i] = float64(v) / 100
		}
		s, err := EstimateStats(stops, testB)
		if err != nil {
			return false
		}
		return s.Validate(testB) == nil
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
