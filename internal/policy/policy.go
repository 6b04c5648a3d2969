// Package policy defines the versioned PolicyEngine abstraction the
// idled serving stack dispatches over, plus the registry that makes
// new policy families additive registrations instead of handler
// surgery.
//
// An Engine is a policy family (the paper's constrained single-slope
// selector, the multislope ski-rental bundle, ...). Preparing an
// engine against one area's constrained statistics yields an immutable
// Strategy — the cacheable unit the server keys by
// {area, engine, params-hash}. Deciding draws the action schedule for
// one stop from a caller-supplied RNG; a Decision is a pure function
// of (stats, engine, engine version, RNG stream), which is what lets
// the audit log replay any engine bit-identically.
//
// Versioning rules: an engine's Version is part of its serving
// contract. Any change that can alter a decision for the same inputs —
// selection logic, threshold formulas, RNG consumption order — MUST
// bump Version; the audit verifier refuses to attest records written
// by a different version rather than report false mismatches. Wire
// specs accept "name" (any version) or "name@vN" (exact version).
package policy

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"idlereduce/internal/predict"
)

// Stats is one area's constrained serving statistics: the break-even
// interval B and the pair (mu_B-, q_B+) measured at B. It is the only
// distributional information an engine may depend on, which keeps
// every engine replayable from an audit record.
type Stats struct {
	// B is the break-even interval in seconds (restart cost in
	// idle-second equivalents).
	B float64
	// Mu is mu_B-: the partial expectation of stops not longer than B.
	Mu float64
	// Q is q_B+: the probability of a stop longer than B.
	Q float64
}

// Action is one rung of an action schedule: enter State when the stop
// reaches AtSec seconds.
type Action struct {
	State string  `json:"state"`
	AtSec float64 `json:"at_sec"`
}

// Decision is one engine decision for one stop.
type Decision struct {
	// Choice is the selected strategy label (e.g. "DET", "N-Rand", or a
	// multislope bundle like "MS:DET+N-Rand").
	Choice string
	// ThresholdSec is the primary engine-off threshold: idle this many
	// seconds, then shut the engine down. For multi-state engines it is
	// the final (engine-off) rung of the schedule.
	ThresholdSec float64
	// Schedule is the full action ladder for multi-state engines; nil
	// for single-slope engines, whose schedule is implied by
	// ThresholdSec.
	Schedule []Action
	// WorstCaseCost and WorstCaseCR are the strategy's guaranteed
	// bounds over every distribution consistent with the statistics.
	WorstCaseCost float64
	WorstCaseCR   float64
}

// Description summarizes a prepared strategy for area listings.
type Description struct {
	// Choice is the precomputed selection label.
	Choice string
	// ThresholdSec is the fixed engine-off threshold, or -1 when it is
	// drawn per request.
	ThresholdSec  float64
	WorstCaseCost float64
	WorstCaseCR   float64
}

// Strategy is a prepared, immutable policy for one (stats, engine)
// pair. Implementations must be safe for concurrent Decide calls and
// must consume the RNG identically for identical inputs — decisions
// are replayed bit-for-bit by the audit verifier.
type Strategy interface {
	// Decide draws the action schedule for one stop.
	Decide(rng *rand.Rand) Decision
	// Describe returns the precomputed summary for listings.
	Describe() Description
	// Explain renders the deterministic derivation record: how the
	// engine turned the statistics into this strategy. It is identical
	// for every decision the strategy draws, so it lives here rather
	// than on Decision — the per-request hot path never pays for it.
	Explain() string
}

// Engine is one versioned policy family.
type Engine interface {
	// Name is the registry key: lowercase [a-z0-9_-]+.
	Name() string
	// Version is the engine's decision-contract generation (see the
	// package comment's versioning rules).
	Version() int
	// Doc is a one-line human description for listings.
	Doc() string
	// Prepare precomputes the strategy for one area's statistics. It
	// returns ErrInfeasible (wrapped) when the statistics cannot be
	// served by this family.
	Prepare(s Stats) (Strategy, error)
}

// DefaultEngine is the engine served when a request names none: the
// paper's constrained single-slope selector.
const DefaultEngine = "constrained"

// Stable error classes. The server maps these to wire error codes, so
// they are part of the API contract.
var (
	// ErrUnknownEngine reports a spec naming no registered engine.
	ErrUnknownEngine = errors.New("policy: unknown engine")
	// ErrVersionMismatch reports a pinned "name@vN" spec whose N is not
	// the registered engine's version.
	ErrVersionMismatch = errors.New("policy: engine version mismatch")
	// ErrBadSpec reports a syntactically malformed engine spec.
	ErrBadSpec = errors.New("policy: malformed engine spec")
	// ErrInfeasible reports statistics an engine cannot serve.
	ErrInfeasible = errors.New("policy: infeasible statistics for engine")
	// ErrBadParams reports engine parameters that fail validation:
	// an unknown name, a non-finite value, or a value outside the
	// parameter's declared range.
	ErrBadParams = errors.New("policy: invalid engine params")
)

// ParamSpec declares one tunable engine parameter: its registry name,
// a one-line doc, the default used when a request omits it, and the
// closed accepted range.
type ParamSpec struct {
	Name    string  `json:"name"`
	Doc     string  `json:"doc"`
	Default float64 `json:"default"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

// Parametric is an Engine with tunable per-request parameters. Its
// plain Prepare is the all-defaults preparation; PrepareParams prepares
// with caller overrides, already validated through ResolveParams.
// Parameters are part of the strategy cache key, so two requests with
// different params never share a prepared strategy.
type Parametric interface {
	Engine
	// Params declares the accepted parameters in listing order.
	Params() []ParamSpec
	// PrepareParams prepares a strategy with the given overrides; nil
	// means all defaults (and must behave exactly like Prepare).
	PrepareParams(s Stats, params map[string]float64) (Strategy, error)
}

// Advised is a Strategy that can consume a stop-length prediction.
// DecideAdvised with the zero-trust extreme (engine lambda 0, or
// prediction confidence 0) MUST be bit-identical to Decide from the
// same RNG position, including RNG consumption — that invariant is
// what keeps audit replay a pure function of the recorded inputs.
type Advised interface {
	Strategy
	// DecideAdvised draws the action schedule for one stop under the
	// given prediction.
	DecideAdvised(rng *rand.Rand, p predict.Prediction) Decision
	// Advise draws the fallback threshold and applies Rule to it: the
	// threshold DecideAdvised serves, without its label and bounds.
	Advise(rng *rand.Rand, p predict.Prediction) predict.Advice
	// Rule is the advice rule Advise applies to the fallback draw.
	Rule() predict.Rule
}

// ResolveParams validates caller overrides against the engine's
// declared parameters and merges them over the defaults. Unknown
// names, NaN values, and out-of-range values wrap ErrBadParams.
func ResolveParams(e Parametric, params map[string]float64) (map[string]float64, error) {
	specs := e.Params()
	out := make(map[string]float64, len(specs))
	accepted := make([]string, 0, len(specs))
	for _, ps := range specs {
		out[ps.Name] = ps.Default
		accepted = append(accepted, ps.Name)
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := params[name]
		var ps *ParamSpec
		for i := range specs {
			if specs[i].Name == name {
				ps = &specs[i]
				break
			}
		}
		if ps == nil {
			return nil, fmt.Errorf("%w: engine %s has no param %q (accepted: %s)",
				ErrBadParams, e.Name(), name, strings.Join(accepted, ", "))
		}
		if math.IsNaN(v) || v < ps.Min || v > ps.Max {
			return nil, fmt.Errorf("%w: %s=%v outside [%g, %g]", ErrBadParams, name, v, ps.Min, ps.Max)
		}
		out[name] = v
	}
	return out, nil
}

// Prepare prepares eng against s with resolved parameters (nil means
// the engine's defaults): the one dispatch between Engine.Prepare and
// Parametric.PrepareParams. Params on an engine that declares none
// wrap ErrBadParams. A strategy that would publish a number that is not
// finite (statistics at the edge of float64's range overflow the
// threshold or the cost) wraps ErrInfeasible: no such number can be
// served or encoded.
func Prepare(eng Engine, s Stats, params map[string]float64) (Strategy, error) {
	var st Strategy
	var err error
	if len(params) == 0 {
		st, err = eng.Prepare(s)
	} else if pe, ok := eng.(Parametric); ok {
		st, err = pe.PrepareParams(s, params)
	} else {
		return nil, fmt.Errorf("%w: engine %s accepts no params", ErrBadParams, eng.Name())
	}
	if err != nil {
		return nil, err
	}
	if err := checkFinite(st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	return st, nil
}

// checkFinite reports the first number st publishes that is not finite:
// its Describe summary and, when it is Bounded, its CR bound.
func checkFinite(st Strategy) error {
	d := st.Describe()
	bound := 1.0
	if b, ok := st.(Bounded); ok {
		bound = b.WorstCaseCRBound()
	}
	names := [...]string{"threshold", "worst-case cost", "worst-case CR", "CR bound"}
	for i, v := range [...]float64{d.ThresholdSec, d.WorstCaseCost, d.WorstCaseCR, bound} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s %v is not finite", names[i], v)
		}
	}
	return nil
}

var (
	regMu    sync.RWMutex
	registry = map[string]Engine{}
	// specs holds each registered engine's rendered spec by name.
	// Register replaces the map under regMu, so Spec reads it with one
	// atomic load and formats nothing.
	specs atomic.Pointer[map[string]engineSpec]
)

// engineSpec is one registered engine's "name@vN", rendered once.
type engineSpec struct {
	version int
	spec    string
}

// nameRE pins registry keys to lowercase identifiers so wire specs
// normalize trivially.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_-]*$`)

// Register adds an engine to the registry. It panics on an invalid
// name, a non-positive version, or a duplicate registration — engine
// wiring is a boot-time programming error, never a runtime condition.
func Register(e Engine) {
	name := e.Name()
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("policy: invalid engine name %q", name))
	}
	if e.Version() < 1 {
		panic(fmt.Sprintf("policy: engine %s version %d must be >= 1", name, e.Version()))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("policy: duplicate engine registration %q", name))
	}
	registry[name] = e
	next := map[string]engineSpec{name: {e.Version(), renderSpec(name, e.Version())}}
	if cur := specs.Load(); cur != nil {
		maps.Copy(next, *cur)
	}
	specs.Store(&next)
}

// Names returns the registered engine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns a registered engine by exact name.
func Get(name string) (Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Spec renders an engine's canonical pinned spec, "name@vN". The spec
// of a registered engine is rendered once, at registration, and every
// call returns that string.
func Spec(e Engine) string {
	name, version := e.Name(), e.Version()
	if m := specs.Load(); m != nil {
		if s, ok := (*m)[name]; ok && s.version == version {
			return s.spec
		}
	}
	return renderSpec(name, version)
}

func renderSpec(name string, version int) string {
	return name + "@v" + strconv.Itoa(version)
}

// Lookup resolves a wire engine spec: "" (the default engine), "name"
// (any version), or "name@vN" (exactly version N). Specs are
// case-insensitive and whitespace-trimmed. Errors wrap the stable
// classes above.
func Lookup(spec string) (Engine, error) {
	spec = strings.ToLower(strings.TrimSpace(spec))
	if spec == "" {
		spec = DefaultEngine
	}
	name, version := spec, 0
	if at := strings.IndexByte(spec, '@'); at >= 0 {
		var err error
		name = spec[:at]
		if version, err = parseVersion(spec[at+1:]); err != nil {
			return nil, fmt.Errorf("%w: %q: %v", ErrBadSpec, spec, err)
		}
	}
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadSpec, spec)
	}
	e, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownEngine, name, strings.Join(Names(), ", "))
	}
	if version != 0 && version != e.Version() {
		return nil, fmt.Errorf("%w: %s pins v%d, registered is v%d", ErrVersionMismatch, name, version, e.Version())
	}
	return e, nil
}

// parseVersion parses the "vN" suffix of a pinned spec.
func parseVersion(s string) (int, error) {
	if !strings.HasPrefix(s, "v") {
		return 0, fmt.Errorf("version %q must look like v1", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 1 {
		return 0, fmt.Errorf("version %q must be v<positive integer>", s)
	}
	return n, nil
}
