package policy

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// fakeEngine lets registry tests register throwaway engines.
type fakeEngine struct {
	name    string
	version int
}

func (f fakeEngine) Name() string                    { return f.name }
func (f fakeEngine) Version() int                    { return f.version }
func (f fakeEngine) Doc() string                     { return "test engine" }
func (f fakeEngine) Prepare(Stats) (Strategy, error) { return nil, ErrInfeasible }

// unregister removes a test's engine from the process-wide registry, so
// no later test (in any order, in any repeated run) sees it.
func unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, name)
	next := maps.Clone(*specs.Load())
	delete(next, name)
	specs.Store(&next)
}

func TestRegistryHasBuiltins(t *testing.T) {
	names := Names()
	for _, want := range []string{DefaultEngine, MultislopeEngine} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin engine %q not registered (have %v)", want, names)
		}
	}
}

// TestLookupSpecs is the wire-spec parsing table: every malformed or
// unknown spec must map to its stable error class, never succeed and
// never panic.
func TestLookupSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr error // nil = must resolve
		name    string
	}{
		{"", nil, DefaultEngine},
		{"constrained", nil, DefaultEngine},
		{"  Constrained  ", nil, DefaultEngine},
		{"constrained@v1", nil, DefaultEngine},
		{"CONSTRAINED@V1", nil, DefaultEngine},
		{"multislope3", nil, MultislopeEngine},
		{"multislope3@v1", nil, MultislopeEngine},
		{"nope", ErrUnknownEngine, ""},
		{"constrained@v2", ErrVersionMismatch, ""},
		{"multislope3@v99", ErrVersionMismatch, ""},
		{"constrained@", ErrBadSpec, ""},
		{"constrained@1", ErrBadSpec, ""},
		{"constrained@vx", ErrBadSpec, ""},
		{"constrained@v0", ErrBadSpec, ""},
		{"constrained@v-1", ErrBadSpec, ""},
		{"@v1", ErrBadSpec, ""},
		{"bad name", ErrBadSpec, ""},
		{"3slope", ErrBadSpec, ""},
		{"a@v1@v2", ErrBadSpec, ""},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%q", c.spec), func(t *testing.T) {
			e, err := Lookup(c.spec)
			if c.wantErr == nil {
				if err != nil {
					t.Fatalf("Lookup(%q) = %v, want engine", c.spec, err)
				}
				if e.Name() != c.name {
					t.Fatalf("Lookup(%q) = %s, want %s", c.spec, e.Name(), c.name)
				}
				return
			}
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("Lookup(%q) error %v, want class %v", c.spec, err, c.wantErr)
			}
		})
	}
}

// TestRegisterValidation: bad names, bad versions and duplicate
// registrations are boot-time programming errors and must panic.
func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name, want string, e Engine) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not mention %q", name, msg, want)
			}
		}()
		Register(e)
	}
	mustPanic("empty name", "invalid engine name", fakeEngine{name: "", version: 1})
	mustPanic("upper name", "invalid engine name", fakeEngine{name: "Bad", version: 1})
	mustPanic("spacey name", "invalid engine name", fakeEngine{name: "a b", version: 1})
	mustPanic("zero version", "version 0", fakeEngine{name: "zeroed", version: 0})
	mustPanic("duplicate builtin", "duplicate", fakeEngine{name: DefaultEngine, version: 1})

	// A fresh name registers once, then panics on the second attempt.
	Register(fakeEngine{name: "dup-probe", version: 1})
	t.Cleanup(func() { unregister("dup-probe") })
	mustPanic("duplicate fresh", "duplicate", fakeEngine{name: "dup-probe", version: 2})
}

func TestSpecRoundTrip(t *testing.T) {
	e, err := Lookup(DefaultEngine)
	if err != nil {
		t.Fatal(err)
	}
	if got := Spec(e); got != "constrained@v1" {
		t.Fatalf("Spec = %q", got)
	}
	if _, err := Lookup(Spec(e)); err != nil {
		t.Fatalf("canonical spec does not resolve: %v", err)
	}
}

// TestSpecRenderedOnce: a registered engine's spec keeps fmt's
// "%s@v%d" bytes and costs no formatting per call; an engine the
// registry does not know under that name and version still renders.
func TestSpecRenderedOnce(t *testing.T) {
	for _, n := range Names() {
		e, _ := Get(n)
		want := fmt.Sprintf("%s@v%d", e.Name(), e.Version())
		if got := Spec(e); got != want {
			t.Errorf("Spec(%s) = %q, want %q", n, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = Spec(e) }); allocs != 0 {
			t.Errorf("Spec(%s) allocates %v times per call, want 0", n, allocs)
		}
	}
	for _, e := range []Engine{fakeEngine{name: "never-registered", version: 3}, fakeEngine{name: DefaultEngine, version: 9}} {
		if got, want := Spec(e), fmt.Sprintf("%s@v%d", e.Name(), e.Version()); got != want {
			t.Errorf("Spec(%+v) = %q, want %q", e, got, want)
		}
	}
}

// TestConstrainedMatchesSkirental: the engine's decisions must be the
// skirental policy verbatim (the byte-identity bedrock the serving
// refactor stands on).
func TestConstrainedMatchesSkirental(t *testing.T) {
	e, err := Lookup(DefaultEngine)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Stats{
		{B: 28, Mu: 8, Q: 0.13},  // DET region
		{B: 28, Mu: 4, Q: 0.25},  // N-Rand region
		{B: 28, Mu: 0.5, Q: 0.9}, // TOI-ish corner
	}
	for _, s := range cases {
		strat, err := e.Prepare(s)
		if err != nil {
			t.Fatalf("Prepare(%+v): %v", s, err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			got := strat.Decide(rand.New(rand.NewPCG(seed, 7)))
			wantRNG := rand.New(rand.NewPCG(seed, 7))
			want := mustConstrained(t, s)
			if got.Choice != want.Choice().String() {
				t.Fatalf("stats %+v: choice %s, want %s", s, got.Choice, want.Choice())
			}
			if th := want.Threshold(wantRNG); th != got.ThresholdSec {
				t.Fatalf("stats %+v seed %d: threshold %v, want %v", s, seed, got.ThresholdSec, th)
			}
			if got.WorstCaseCost != want.WorstCaseCost() || got.WorstCaseCR != want.WorstCaseCR() {
				t.Fatalf("stats %+v: bounds (%v, %v), want (%v, %v)",
					s, got.WorstCaseCost, got.WorstCaseCR, want.WorstCaseCost(), want.WorstCaseCR())
			}
			if got.Schedule != nil {
				t.Fatalf("constrained decision carries a schedule: %+v", got.Schedule)
			}
		}
		if strat.Explain() == "" {
			t.Fatal("empty explain record")
		}
	}
}

func TestConstrainedInfeasible(t *testing.T) {
	e, _ := Lookup(DefaultEngine)
	for _, s := range []Stats{
		{B: 28, Mu: 30, Q: 0.5}, // mu beyond B(1-q)
		{B: 0, Mu: 1, Q: 0.1},   // non-positive break-even
		{B: 28, Mu: 1, Q: 1.5},  // q out of range
	} {
		if _, err := e.Prepare(s); !errors.Is(err, ErrInfeasible) {
			t.Errorf("Prepare(%+v) = %v, want ErrInfeasible", s, err)
		}
	}
}

// TestPrepareRefusesNonFiniteNumbers: every shipped engine refuses, as
// infeasible, statistics whose strategy would publish a number that is
// not finite. At B = 1e308, b-DET's threshold sqrt(mu B / q) and DET's
// worst-case cost overflow.
func TestPrepareRefusesNonFiniteNumbers(t *testing.T) {
	for _, name := range []string{"constrained", "multislope3", "softml", "distadvice"} {
		eng, ok := Get(name)
		if !ok {
			t.Fatalf("engine %s is not registered", name)
		}
		for _, s := range []Stats{{B: 1e308, Mu: 5, Q: 0.5}, {B: math.MaxFloat64, Mu: 1, Q: 0.9}} {
			st, err := Prepare(eng, s, nil)
			if !errors.Is(err, ErrInfeasible) {
				t.Errorf("%s at %+v: strategy %v, error %v; want ErrInfeasible", name, s, st, err)
			}
		}
		if _, err := Prepare(eng, Stats{B: 28, Mu: 5, Q: 0.5}, nil); err != nil {
			t.Errorf("%s at B = 28: %v", name, err)
		}
	}
}
