package adaptive

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"idlereduce/internal/skirental"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(3, 14)) }

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{B: 0},
		{B: -1},
		{B: math.NaN()},
		{B: math.Inf(1)},
		{B: 28, Warmup: -5},
		{B: 28, Forgetting: -0.5},
		{B: 28, Forgetting: 1.5},
		{B: 28, Forgetting: math.NaN()},
		{B: 28, Forgetting: math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := New(c); !errors.Is(err, ErrConfig) {
			t.Errorf("%+v: want ErrConfig, got %v", c, err)
		}
	}
	p, err := New(Config{B: 28})
	if err != nil {
		t.Fatal(err)
	}
	if p.cfg.Warmup != 10 || p.cfg.Forgetting != 1 {
		t.Errorf("defaults not applied: %+v", p.cfg)
	}
}

func TestWarmupPlaysNRand(t *testing.T) {
	p, _ := New(Config{B: 28, Warmup: 5})
	if p.Warm() {
		t.Error("warm before any observation")
	}
	if p.Choice() != skirental.ChoiceNRand {
		t.Errorf("warmup choice %v", p.Choice())
	}
	// Mean cost during warmup must match N-Rand exactly.
	n := skirental.NewNRand(28)
	for _, y := range []float64{5.0, 40.0} {
		if p.MeanCostForStop(y) != n.MeanCostForStop(y) {
			t.Error("warmup cost differs from N-Rand")
		}
	}
}

func TestObserveUpdatesStats(t *testing.T) {
	p, _ := New(Config{B: 28, Warmup: 1})
	for _, y := range []float64{10, 20, 100} {
		if err := p.Observe(y); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if math.Abs(s.MuBMinus-10) > 1e-12 { // (10+20)/3
		t.Errorf("mu %v want 10", s.MuBMinus)
	}
	if math.Abs(s.QBPlus-1.0/3) > 1e-12 {
		t.Errorf("q %v want 1/3", s.QBPlus)
	}
	if p.Seen() != 3 {
		t.Errorf("seen %d", p.Seen())
	}
}

func TestObserveRejectsInvalid(t *testing.T) {
	p, _ := New(Config{B: 28})
	for _, y := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := p.Observe(y); err == nil {
			t.Errorf("Observe(%v) should fail", y)
		}
	}
}

func TestConvergesToStaticChoice(t *testing.T) {
	// On stationary traffic the adaptive policy must settle on the same
	// vertex as the static proposed policy with exact statistics.
	rng := testRNG()
	stops := make([]float64, 3000)
	for i := range stops {
		if rng.Float64() < 0.9 {
			stops[i] = 2 + rng.Float64()*10 // short
		} else {
			stops[i] = 100 + rng.Float64()*400 // long
		}
	}
	static, err := skirental.NewConstrainedFromStops(28, stops)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(Config{B: 28})
	if _, _, err := p.Run(stops, rng); err != nil {
		t.Fatal(err)
	}
	if p.Choice() != static.Choice() {
		t.Errorf("adaptive settled on %v, static chooses %v", p.Choice(), static.Choice())
	}
	// Estimates close to the static ones.
	ss := static.Stats()
	as := p.Stats()
	if math.Abs(ss.MuBMinus-as.MuBMinus) > 0.05*(1+ss.MuBMinus) ||
		math.Abs(ss.QBPlus-as.QBPlus) > 0.05 {
		t.Errorf("estimates %+v vs exact %+v", as, ss)
	}
}

func TestAdaptiveNearStaticCost(t *testing.T) {
	// The cost of learning: adaptive CR should be within a few percent
	// of the static proposed policy on a long stationary trace.
	rng := testRNG()
	stops := make([]float64, 8000)
	for i := range stops {
		if rng.Float64() < 0.88 {
			stops[i] = 2 + rng.Float64()*12
		} else {
			stops[i] = 120 + rng.Float64()*600
		}
	}
	p, _ := New(Config{B: 28})
	on, off, err := p.RunMean(stops)
	if err != nil {
		t.Fatal(err)
	}
	adaptiveCR := on / off
	static, _ := skirental.NewConstrainedFromStops(28, stops)
	staticCR := skirental.TraceCR(static, stops)
	if adaptiveCR > staticCR*1.05 {
		t.Errorf("adaptive CR %v vs static %v: learning cost too high", adaptiveCR, staticCR)
	}
}

func TestRegimeChangeAdaptation(t *testing.T) {
	// First half: light traffic (DET territory). Second half: gridlock
	// (TOI territory). With forgetting the policy must switch vertices.
	var stops []float64
	rng := testRNG()
	for i := 0; i < 1500; i++ {
		stops = append(stops, 2+rng.Float64()*8) // all short
	}
	for i := 0; i < 1500; i++ {
		stops = append(stops, 200+rng.Float64()*600) // all long
	}
	p, _ := New(Config{B: 28, Forgetting: 0.99})
	// Run the first half, check DET-ish.
	if _, _, err := p.Run(stops[:1500], rng); err != nil {
		t.Fatal(err)
	}
	if p.Choice() != skirental.ChoiceDET {
		t.Errorf("light traffic: choice %v, want DET", p.Choice())
	}
	// Run the jam.
	if _, _, err := p.Run(stops[1500:], rng); err != nil {
		t.Fatal(err)
	}
	if p.Choice() != skirental.ChoiceTOI {
		t.Errorf("gridlock: choice %v, want TOI", p.Choice())
	}
}

func TestForgettingAdaptsFasterThanPlainAverage(t *testing.T) {
	// After a regime change, the forgetting policy should switch to TOI
	// within fewer stops than the plain running average.
	mkStops := func() []float64 {
		rng := rand.New(rand.NewPCG(7, 7))
		var stops []float64
		for i := 0; i < 2000; i++ {
			stops = append(stops, 2+rng.Float64()*8)
		}
		for i := 0; i < 2000; i++ {
			stops = append(stops, 300+rng.Float64()*500)
		}
		return stops
	}
	switchPoint := func(forgetting float64) int {
		p, err := New(Config{B: 28, Forgetting: forgetting})
		if err != nil {
			t.Fatal(err)
		}
		stops := mkStops()
		rng := rand.New(rand.NewPCG(8, 8))
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
	fast := switchPoint(0.97)
	slow := switchPoint(1.0)
	if fast >= slow {
		t.Errorf("forgetting switch after %d stops, plain average after %d", fast, slow)
	}
}

func TestRunAccountsCosts(t *testing.T) {
	p, _ := New(Config{B: 28, Warmup: 1})
	stops := []float64{10, 40, 5}
	rng := testRNG()
	on, off, err := p.Run(stops, rng)
	if err != nil {
		t.Fatal(err)
	}
	if off != 10+28+5 {
		t.Errorf("offline %v", off)
	}
	if on < off {
		t.Errorf("online %v below offline %v", on, off)
	}
}

// warmupTrace is 200 stops straddling B=28, with a stop of exactly B
// and a 0-s stop.
func warmupTrace() []float64 {
	rng := rand.New(rand.NewPCG(5, 9))
	stops := []float64{28, 0}
	for len(stops) < 200 {
		stops = append(stops, rng.Float64()*90)
	}
	return stops
}

// TestRunDuringWarmupEqualsTraceCost: before warming up the policy
// plays N-Rand, so Run draws and sums exactly as skirental.TraceCost
// does for N-Rand, and the totals agree bit for bit.
func TestRunDuringWarmupEqualsTraceCost(t *testing.T) {
	stops := warmupTrace()
	p, err := New(Config{B: 28, Warmup: len(stops)})
	if err != nil {
		t.Fatal(err)
	}
	on, off, err := p.Run(stops, testRNG())
	if err != nil {
		t.Fatal(err)
	}
	wantOn, wantOff := skirental.TraceCost(skirental.NewNRand(28), stops, testRNG())
	if math.Float64bits(on) != math.Float64bits(wantOn) || math.Float64bits(off) != math.Float64bits(wantOff) {
		t.Errorf("Run (%v, %v), TraceCost (%v, %v)", on, off, wantOn, wantOff)
	}
}
