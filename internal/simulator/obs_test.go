package simulator

import (
	"context"
	"math"
	"testing"

	"idlereduce/internal/obs"
	"idlereduce/internal/skirental"
)

// TestRunContextPublishesMetrics checks that the per-stop metrics of an
// instrumented run agree exactly with the returned Result.
func TestRunContextPublishesMetrics(t *testing.T) {
	rec := obs.NewRecorder("test", nil, nil)
	ctx := obs.WithRecorder(context.Background(), rec)
	stops := []float64{10, 30, 5} // DET at B=28: only the 30 s stop shuts off
	res, err := RunContext(ctx, Config{Costs: testCosts, Policy: skirental.NewDET(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	if got := reg.Counter("sim_stops_total").Value(); got != int64(len(stops)) {
		t.Errorf("sim_stops_total %d want %d", got, len(stops))
	}
	if got := reg.Counter("sim_engine_off_total").Value(); got != int64(res.Restarts) {
		t.Errorf("sim_engine_off_total %d want %d", got, res.Restarts)
	}
	if got := reg.Counter("sim_drive_on_idling_total").Value(); got != int64(len(stops)-res.Restarts) {
		t.Errorf("sim_drive_on_idling_total %d", got)
	}
	online := reg.Histogram("sim_online_cents")
	if online.Count() != uint64(len(stops)) {
		t.Errorf("online histogram count %d", online.Count())
	}
	if math.Abs(online.Sum()-res.OnlineCents) > 1e-9 {
		t.Errorf("online histogram sum %v want %v", online.Sum(), res.OnlineCents)
	}
	if math.Abs(reg.Histogram("sim_offline_cents").Sum()-res.OfflineCents) > 1e-9 {
		t.Errorf("offline histogram sum mismatch")
	}
	// Transition counters: every stop begins one idling phase;
	// shut-offs pair with restarts.
	for kind, want := range map[string]int64{
		"stop":       int64(len(stops)),
		"engine-off": int64(res.Restarts),
		"restart":    int64(res.Restarts),
		"drive-on":   int64(len(stops) - res.Restarts),
	} {
		if got := reg.Counter(obs.L("sim_transition_total", "kind", kind)).Value(); got != want {
			t.Errorf("sim_transition_total{kind=%q} = %d want %d", kind, got, want)
		}
	}
	if got := reg.Gauge("sim_last_run_cr").Value(); math.Abs(got-res.CR()) > 1e-12 {
		t.Errorf("sim_last_run_cr %v want %v", got, res.CR())
	}
	if reg.Histogram(obs.L("span_ms", "span", "simulator.run")).Count() != 1 {
		t.Error("simulator.run span not recorded")
	}
}

// TestRunContextWithoutRecorder pins the no-op contract: a bare context
// must leave no trace and produce identical results to Run.
func TestRunContextWithoutRecorder(t *testing.T) {
	stops := []float64{10, 30, 5}
	res1, err := RunContext(context.Background(), Config{Costs: testCosts, Policy: skirental.NewDET(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(Config{Costs: testCosts, Policy: skirental.NewDET(28)}, stops, simRNG())
	if err != nil {
		t.Fatal(err)
	}
	if res1.OnlineCents != res2.OnlineCents || res1.Restarts != res2.Restarts {
		t.Errorf("instrumented-off run diverged: %+v vs %+v", res1, res2)
	}
}
