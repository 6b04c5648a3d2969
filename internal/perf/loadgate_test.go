package perf

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idlereduce/internal/server"
)

func writeTempFile(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o644)
}

func smallScenario() LoadScenario {
	return LoadScenario{
		Areas:           500,
		Clients:         2,
		Requests:        20,
		Batch:           8,
		ObserveFraction: 0.5,
		MissFraction:    0.1,
		Seed:            suiteSeed,
	}
}

func TestLoadScenarioValidate(t *testing.T) {
	if err := DefaultLoadScenario().Validate(); err != nil {
		t.Fatalf("default scenario invalid: %v", err)
	}
	bad := []LoadScenario{
		{},
		{Areas: 1, Clients: 1, Requests: 1, Batch: 0},
		{Areas: 1, Clients: 1, Requests: 1, Batch: 1, ObserveFraction: 1},
		{Areas: 1, Clients: 1, Requests: 1, Batch: 1, MissFraction: -0.1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid scenario accepted: %+v", i, s)
		}
	}
}

// TestLoadGateBlessThenPass is the gate's self-consistency contract: a
// freshly blessed baseline must pass its own gate, through the same
// file roundtrip the CI job uses.
func TestLoadGateBlessThenPass(t *testing.T) {
	scn := smallScenario()
	rep, err := RunLoadScenario(context.Background(), scn)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Observations == 0 {
		t.Fatalf("scenario run unusable: %+v", rep)
	}
	base := NewLoadBaseline(scn, rep)
	path := filepath.Join(t.TempDir(), "LOADTEST_BASELINE.json")
	if err := base.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	read, err := ReadLoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if read.Scenario != scn {
		t.Fatalf("baseline roundtripped scenario %+v, want %+v", read.Scenario, scn)
	}
	res := GateLoad(read, rep, read.CanaryNsPerOp)
	if !res.OK {
		t.Fatalf("blessed run fails its own gate: %s", res)
	}
	if !strings.Contains(res.String(), "PASS") {
		t.Errorf("summary %q lacks verdict", res.String())
	}
}

// TestCommittedLoadBaselineReads: the committed baseline still decodes
// to the default scenario. It predates the per-area views and carries
// a "shards" key the scenario no longer has, which decoding ignores.
func TestCommittedLoadBaselineReads(t *testing.T) {
	base, err := ReadLoadBaseline(filepath.Join("..", "..", "LOADTEST_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Scenario != DefaultLoadScenario() {
		t.Errorf("committed scenario %+v, want the default %+v", base.Scenario, DefaultLoadScenario())
	}
}

// TestGateLoadFailureModes drives each gated regression through the
// pure comparator.
func TestGateLoadFailureModes(t *testing.T) {
	base := LoadBaseline{
		SchemaVersion: SchemaVersion,
		CanaryNsPerOp: 100,
		Scenario:      smallScenario(),
		P99Ms:         20,
		CacheHitRate:  0.95,
		Alarms:        4,
		Retunes:       2,
	}
	good := server.LoadReport{
		Requests: 40, Decisions: 160, Observations: 160,
		P99: 22, CacheHitRate: 0.95, Alarms: 3, Retunes: 1,
	}
	if res := GateLoad(base, good, 100); !res.OK {
		t.Fatalf("healthy run failed: %s", res)
	}

	cases := map[string]func(*server.LoadReport){
		"errors":     func(r *server.LoadReport) { r.Errors = 1 },
		"overload":   func(r *server.LoadReport) { r.Overloaded = 3 },
		"p99":        func(r *server.LoadReport) { r.P99 = base.P99Ms*(1+loadP99Tolerance) + loadP99FloorMs + 1 },
		"hit_rate":   func(r *server.LoadReport) { r.CacheHitRate = base.CacheHitRate - loadHitRateMargin - 0.001 },
		"no_observe": func(r *server.LoadReport) { r.Observations = 0 },
		"no_alarms":  func(r *server.LoadReport) { r.Alarms = 0 },
		"no_retunes": func(r *server.LoadReport) { r.Retunes = 0 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			rep := good
			mutate(&rep)
			res := GateLoad(base, rep, 100)
			if res.OK {
				t.Fatalf("regression %s passed the gate", name)
			}
			if len(res.Failures) == 0 {
				t.Fatal("failing result carries no failure detail")
			}
		})
	}

	// Canary normalization: the same p99 on a machine measured 2x
	// slower is inside the widened allowance.
	slow := good
	slow.P99 = base.P99Ms * 2
	if res := GateLoad(base, slow, 200); !res.OK {
		t.Fatalf("normalized slow-machine run failed: %s", res)
	}
	if res := GateLoad(base, slow, 0); res.SpeedRatio != 0 {
		t.Errorf("missing canary still reported ratio %v", res.SpeedRatio)
	}
}

func TestReadLoadBaselineFailsClosed(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadLoadBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing baseline accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	for name, body := range map[string]string{
		"garbage":   "{not json",
		"schema":    `{"schema_version":99,"scenario":{"areas":1,"clients":1,"requests":1,"batch":1},"p99_ms":1,"cache_hit_rate":0.5}`,
		"no_p99":    `{"schema_version":1,"scenario":{"areas":1,"clients":1,"requests":1,"batch":1},"p99_ms":0,"cache_hit_rate":0.5}`,
		"bad_scene": `{"schema_version":1,"scenario":{"areas":0,"clients":0,"requests":0,"batch":0},"p99_ms":1,"cache_hit_rate":0.5}`,
	} {
		if err := writeTempFile(bad, body); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLoadBaseline(bad); err == nil {
			t.Errorf("%s baseline accepted", name)
		}
	}
}
