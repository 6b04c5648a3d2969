package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"idlereduce/internal/obs"
)

// wireFiller sets every exported field of a wire value at random, so a
// field added to a type without its encoder fails the differential test
// below. Strings cover every escape class, floats the exponent
// cut-offs, and zero values the omitempty cases.
type wireFiller struct {
	rng *rand.Rand
	// nonFinite is the chance that a float is NaN or ±Inf.
	nonFinite float64
}

var wireStrings = []string{
	"", "chicago", "DET", "N-Rand", "multislope3@v1", "6f1f3a9c-0000042",
	`a "quoted" \ path`, "<script>&</script>", "tab\tnew\nline\x00\x1f",
	"caf\u00e9", "\u2028\u2029", "bad \xff\xfe utf8", "\U0001F600",
}

var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, 28, 0.13, 17.25, -3.5, 1e-6, 9.99e-7,
	1.5e-7, 1e21, 9.9e20, 1e-300, 5e-324, math.MaxFloat64,
}

func (f wireFiller) fill(v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(wireStrings[f.rng.IntN(len(wireStrings))])
	case reflect.Float64:
		v.SetFloat(f.float())
	case reflect.Bool:
		v.SetBool(f.rng.IntN(2) == 1)
	case reflect.Int, reflect.Int64:
		if f.rng.IntN(4) > 0 {
			v.SetInt(int64(f.rng.Uint64()) >> f.rng.IntN(64))
		}
	case reflect.Uint64:
		if f.rng.IntN(4) > 0 {
			v.SetUint(f.rng.Uint64() >> f.rng.IntN(64))
		}
	case reflect.Pointer:
		if f.rng.IntN(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem(), depth+1)
		}
	case reflect.Slice:
		switch n := f.rng.IntN(5); {
		case n == 0:
		case n == 1 || depth > 2:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < n-1; i++ {
				f.fill(v.Index(i), depth+1)
			}
		}
	case reflect.Map:
		if n := f.rng.IntN(4); n > 0 {
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < 3*(n-1); i++ {
				k := reflect.New(v.Type().Key()).Elem()
				f.fill(k, depth+1)
				e := reflect.New(v.Type().Elem()).Elem()
				f.fill(e, depth+1)
				v.SetMapIndex(k, e)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i), depth+1)
			}
		}
	default:
		panic("wireFiller: unhandled kind " + v.Kind().String())
	}
}

func (f wireFiller) float() float64 {
	if f.rng.Float64() < f.nonFinite {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[f.rng.IntN(3)]
	}
	if f.rng.IntN(2) == 0 {
		return wireFloats[f.rng.IntN(len(wireFloats))]
	}
	for {
		x := math.Float64frombits(f.rng.Uint64())
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			return x
		}
	}
}

// wireTypes are the types the serving path encodes per request: the
// replies, the audit records and the pieces they nest.
var wireTypes = []any{
	DecideResponse{}, BatchDecideResponse{}, ObserveResponse{}, BatchObserveResponse{},
	ErrorResponse{}, AuditRecord{}, ObserveRecord{}, SettleRecord{},
	BatchItem{}, BatchObserveItem{}, APIError{}, ScheduleAction{}, PredictionBlock{},
}

// TestWireAppendMatchesMarshal fills every reply and record type at
// random and holds AppendJSON to json.Marshal's bytes, appending after
// a prefix. With non-finite floats mixed in, both must refuse the same
// values.
func TestWireAppendMatchesMarshal(t *testing.T) {
	for _, proto := range wireTypes {
		typ := reflect.TypeOf(proto)
		t.Run(typ.Name(), func(t *testing.T) {
			for i, nonFinite := range []float64{0, 0.02} {
				f := wireFiller{rng: rand.New(rand.NewPCG(uint64(i), 77)), nonFinite: nonFinite}
				for n := 0; n < 1500; n++ {
					v := reflect.New(typ).Elem()
					f.fill(v, 0)
					val := v.Interface()
					want, werr := json.Marshal(val)
					got, gerr := val.(obs.JSONAppender).AppendJSON([]byte("pre:"))
					if (werr != nil) != (gerr != nil) {
						t.Fatalf("%+v: AppendJSON error %v, json.Marshal error %v", val, gerr, werr)
					}
					if werr == nil && !bytes.Equal(got, append([]byte("pre:"), want...)) {
						t.Fatalf("AppendJSON =\n%s\njson.Marshal =\n%s", got[4:], want)
					}
				}
			}
		})
	}
}

// TestWireAppendAllocatesNothing: every reply and record appends into
// a buffer with room without allocating, nested decisions, schedules,
// params and predictions included.
func TestWireAppendAllocatesNothing(t *testing.T) {
	conf, m1, m2 := 0.5, 20.0, 900.0
	dec := &DecideResponse{VehicleID: "v-1", Area: "chicago", B: 28, Choice: "MS:DET+N-Rand", ThresholdSec: 17.25,
		WorstCaseCost: 31.5, WorstCaseCR: 1.58, Seed: 20140601, Policy: "multislope3@v1",
		Schedule: []ScheduleAction{{State: "fuel_cut", AtSec: 4}, {State: "engine_off", AtSec: 17.25}},
		Explain:  "constrained vertex N-Rand", DecisionID: "6f1f3a9c-d000001"}
	apiErr := &APIError{Code: "unknown_area", Message: `unknown area "x"`, Status: 404}
	res := &ObserveResponse{Area: "chicago", Seq: 42, Warm: true, Mu: 8.5, Q: 0.13, Alarm: true, Retuned: true,
		StatsVersion: 3, Settled: true, OnlineCost: 45.25, OptCost: 28}
	values := []obs.JSONAppender{
		*dec,
		BatchDecideResponse{Seed: 11, Results: []BatchItem{{Decision: dec}, {Error: apiErr}, {Decision: dec}}},
		*res,
		BatchObserveResponse{Results: []BatchObserveItem{{Result: res}, {Error: apiErr}}, Accepted: 1, Alarms: 1, Retunes: 1, Settled: 1},
		ErrorResponse{Error: *apiErr},
		AuditRecord{TSUnixMS: 1754500000123, RequestID: "6f1f3a9c-0000042", VehicleID: "v-1", Area: "chicago",
			StatsVersion: 3, B: 28, Mu: 8, Q: 0.13, Seed: 20140601, Stream: 1234567890, Choice: "SoftML",
			ThresholdSec: 17.25, Policy: "softml", PolicyVersion: 1, Schedule: dec.Schedule,
			Params:     map[string]float64{"lambda": 0.25, "alpha": 1},
			Prediction: &PredictionBlock{PredictedStopSec: 40, Confidence: &conf, M1: &m1, M2: &m2},
			DecisionID: "6f1f3a9c-d000001", CRBound: 1.58},
		ObserveRecord{Kind: observeKind, TSUnixMS: 1754500000123, RequestID: "r", VehicleID: "v", Area: "chicago",
			Seq: 42, B: 28, Forgetting: 0.98, StopSec: 61.5, PrevW: 12.5, PrevMuSum: 100.25, PrevQSum: 1.5,
			W: 13.25, MuSum: 106.375, QSum: 2.47, Warm: true, Alarm: true, StatsVersion: 3, Mu: 8.02, Q: 0.186},
		SettleRecord{Kind: settleKind, TSUnixMS: 1754500000123, RequestID: "r", DecisionID: "d", Area: "chicago",
			Engine: "constrained@v1", B: 28, ThresholdSec: 17.25, StopSec: 61.5, OnlineCost: 45.25, OptCost: 28,
			Bound: 1.58, JoinMS: 12, Eq3: true},
	}
	buf := make([]byte, 0, 16<<10)
	for _, v := range values {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := v.AppendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%T.AppendJSON allocates %v times, want 0", v, allocs)
		}
	}
}

// TestDecideSinksAllocationBudget: turning on the trace and audit sinks
// adds at most 6 allocations to a decide through Handler(): the span,
// the boxed audit record and little else. A request context carrying
// the id and the span would add four more.
func TestDecideSinksAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts (sync.Pool drops items)")
	}
	measure := func(cfg Config) float64 {
		cfg.Areas = testAreas()
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.closeLogs()
		h := s.Handler()
		decide := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(`{"vehicle_id":"alloc-1","area":"chicago"}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
		decide() // resolve the lazily created series first
		return testing.AllocsPerRun(300, decide)
	}
	off := measure(Config{})
	on := measure(Config{TraceLog: io.Discard, AuditLog: io.Discard})
	t.Logf("decide allocations: %v with sinks off, %v with trace and audit on", off, on)
	if on-off > 6 {
		t.Errorf("trace and audit add %v allocations per decide, want at most 6", on-off)
	}
}
