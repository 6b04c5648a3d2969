package predict

import (
	"math/rand/v2"
	"testing"
)

func TestPredictors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))

	if p := (Oracle{}).Predict(rng, 42, 7); p.StopSec != 42 || p.Confidence != 1 {
		t.Errorf("oracle: %+v", p)
	}
	if p := (Stale{}).Predict(rng, 42, 7); p.StopSec != 7 {
		t.Errorf("stale: %+v", p)
	}
	if p := (Biased{Factor: 0.5}).Predict(rng, 42, 7); p.StopSec != 21 {
		t.Errorf("biased: %+v", p)
	}
	adv := Adversarial{B: 28}
	if p := adv.Predict(rng, 100, 0); p.StopSec != 0 {
		t.Errorf("adversarial long stop: %+v", p)
	}
	if p := adv.Predict(rng, 5, 0); p.StopSec != 56 {
		t.Errorf("adversarial short stop: %+v", p)
	}
	// Miscalibrated stays positive, valid, and deterministic per seed.
	m := Miscalibrated{Sigma: 1.5}
	r1 := rand.New(rand.NewPCG(9, 9))
	r2 := rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 200; i++ {
		p := m.Predict(r1, 30, 0)
		if err := p.Validate(); err != nil {
			t.Fatalf("noisy prediction invalid: %v", err)
		}
		if p.StopSec <= 0 {
			t.Fatalf("noisy prediction non-positive: %v", p.StopSec)
		}
		if q := m.Predict(r2, 30, 0); q.StopSec != p.StopSec {
			t.Fatal("noisy predictor not deterministic per seed")
		}
	}
	// Names are stable frontier table keys.
	for name, p := range map[string]Predictor{
		"oracle":       Oracle{},
		"noisy(1.5)":   m,
		"stale":        Stale{},
		"biased(0.5x)": Biased{Factor: 0.5},
		"adversarial":  adv,
	} {
		if p.Name() != name {
			t.Errorf("name %q, want %q", p.Name(), name)
		}
	}
}

func TestRecordQualityNilSafe(t *testing.T) {
	// Must not panic on a nil recorder.
	RecordQuality(nil, nil, 28, 10, 20)
}
