package server

import (
	"context"
	"testing"
)

// TestLoadMixedObserveDecide drives the mixed decide/observe scenario
// at a small scale: the report must account for both traffic kinds,
// the mid-run drift must push the retune loop end-to-end (alarms and
// re-derived strategies), and the controlled miss schedule must show
// up in the cache hit-rate.
func TestLoadMixedObserveDecide(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Retune = retuneTestConfig() })
	report, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:         ts.URL,
		Clients:         4,
		Requests:        60,
		Batch:           8,
		Seed:            3,
		ObserveFraction: 0.5,
		MissFraction:    0.1,
		HotAreas:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 || report.Overloaded != 0 {
		t.Fatalf("mixed load errors=%d overloaded=%d", report.Errors, report.Overloaded)
	}
	if report.Observations == 0 {
		t.Fatal("mixed load streamed no observations")
	}
	if report.Decisions == 0 {
		t.Fatal("mixed load made no decisions")
	}
	if report.Alarms == 0 || report.Retunes == 0 {
		t.Errorf("drift did not close the loop: alarms=%d retunes=%d", report.Alarms, report.Retunes)
	}
	if report.CacheHitRate <= 0 || report.CacheHitRate >= 1 {
		t.Errorf("hit rate %v outside (0, 1) despite a 10%% miss schedule", report.CacheHitRate)
	}
	if report.DecideP99 <= 0 || report.ObserveP99 <= 0 {
		t.Errorf("per-kind tails missing: decide %v observe %v", report.DecideP99, report.ObserveP99)
	}

	// The server side agrees: retunes bumped versions beyond 1, and the
	// observation counters moved.
	snap := s.Recorder().Snapshot()
	if got, _ := snap.CounterValue("observe_total"); got != report.Observations {
		t.Errorf("server observe_total %d, report %d", got, report.Observations)
	}
	if got, _ := snap.CounterValue("retune_total"); got != report.Retunes {
		t.Errorf("server retune_total %d, report %d", got, report.Retunes)
	}
	bumped := false
	for _, v := range s.cache.views() {
		if v.rec.version > 1 {
			bumped = true
			break
		}
	}
	if !bumped {
		t.Error("no area version moved past 1 despite reported retunes")
	}

	// Determinism of the generated request stream: the same options on
	// a fresh server produce the same traffic mix.
	_, ts2 := newTestServer(t, func(c *Config) { c.Retune = retuneTestConfig() })
	report2, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:         ts2.URL,
		Clients:         4,
		Requests:        60,
		Batch:           8,
		Seed:            3,
		ObserveFraction: 0.5,
		MissFraction:    0.1,
		HotAreas:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Alarm counts may shift by an observation or two with client
	// interleaving; the traffic mix itself is a pure function of the
	// options.
	if report2.Observations != report.Observations || report2.Decisions != report.Decisions ||
		report2.CacheHitRate != report.CacheHitRate {
		t.Errorf("mixed load not reproducible:\n%+v\n%+v", report, report2)
	}
	if report2.Alarms == 0 || report2.Retunes == 0 {
		t.Errorf("second run did not close the loop: alarms=%d retunes=%d", report2.Alarms, report2.Retunes)
	}
}

// TestLoadSettleFraction drives the competitive-ratio join leg: settle
// slots must land real settles, the deliberately corrupted ids must be
// rejected fail-closed without counting as request errors, and the
// server's ledger must agree with the client-side report.
func TestLoadSettleFraction(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Retune = retuneTestConfig() })
	report, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:        ts.URL,
		Clients:        4,
		Requests:       60,
		Batch:          8,
		Seed:           3,
		SettleFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 || report.Overloaded != 0 {
		t.Fatalf("settle load errors=%d overloaded=%d", report.Errors, report.Overloaded)
	}
	if report.Settled == 0 {
		t.Fatal("settle fraction joined no decisions")
	}
	if report.Orphans == 0 {
		t.Fatal("no orphaned ids exercised the fail-closed path")
	}
	// Every settle the client counted landed in the server's ledger,
	// and every corrupted id was rejected there.
	c := s.ledger.Counters()
	if int64(c.Settled) != report.Settled {
		t.Errorf("server ledger settled %d, report %d", c.Settled, report.Settled)
	}
	if int64(c.Orphaned) < report.Orphans {
		t.Errorf("server ledger orphaned %d, report sent %d corrupted ids", c.Orphaned, report.Orphans)
	}
	// The join feeds the CR table.
	if rows := s.ledger.Rows(); len(rows) == 0 {
		t.Error("settle load left the CR table empty")
	}

	// Same options, fresh server: the settle leg is deterministic too.
	_, ts2 := newTestServer(t, func(c *Config) { c.Retune = retuneTestConfig() })
	report2, err := RunLoad(context.Background(), LoadOptions{
		BaseURL:        ts2.URL,
		Clients:        4,
		Requests:       60,
		Batch:          8,
		Seed:           3,
		SettleFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report2.Settled != report.Settled || report2.Orphans != report.Orphans {
		t.Errorf("settle load not reproducible: settled %d/%d orphans %d/%d",
			report.Settled, report2.Settled, report.Orphans, report2.Orphans)
	}
}
