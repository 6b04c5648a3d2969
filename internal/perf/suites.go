package perf

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"

	"idlereduce/internal/fleet"
	"idlereduce/internal/ledger"
	"idlereduce/internal/policy"
	"idlereduce/internal/server"
	"idlereduce/internal/simulator"
	"idlereduce/internal/skirental"
	"idlereduce/internal/stats"

	"idlereduce/internal/costmodel"
)

// suiteSeed fixes every suite's randomness to the repo-wide experiment
// seed; per-op variation derives from the op index, never the clock.
const suiteSeed = 20140601

// suiteB is the break-even interval every suite measures at (the
// paper's B = 28 s operating point).
const suiteB = 28.0

// DefaultSuites returns the committed benchmark set — the serving hot
// path from pure strategy derivation up through the full HTTP decide
// stack, plus the two bulk producers (fleet generation and the
// event-driven simulator). Names are stable compare keys: renaming one
// breaks the trajectory, so add new suites instead of repurposing old
// names.
func DefaultSuites() []Benchmark {
	return []Benchmark{
		{
			// Pure vertex selection from the constrained statistics —
			// the work a cache miss or stats update pays.
			Name: "strategy_derive", Class: "cpu", Iters: 2000,
			Setup: func() (Op, func(), error) {
				st, err := chicagoStats()
				if err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					_, err := skirental.NewConstrained(suiteB, st)
					return err
				}, nil, nil
			},
		},
		{
			// The decide path's cache read: one map lookup plus one
			// atomic load of the area's view.
			Name: "cache_hit", Class: "cpu", Iters: 20000,
			Setup: func() (Op, func(), error) {
				cache, err := defaultCache()
				if err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					if _, ok := cache.Get("chicago"); !ok {
						return fmt.Errorf("chicago missing from cache")
					}
					return nil
				}, nil, nil
			},
		},
		{
			// The stats swap: validate, re-derive the vertex
			// selection and publish the area's new view.
			Name: "cache_update", Class: "cpu", Iters: 2000,
			Setup: func() (Op, func(), error) {
				cache, err := defaultCache()
				if err != nil {
					return nil, nil, err
				}
				st, err := chicagoStats()
				if err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					// Alternate between two feasible pairs so every
					// update really swaps state.
					s := st
					if i%2 == 1 {
						s.QBPlus *= 0.99
					}
					_, err := cache.Update("chicago", suiteB, s)
					return err
				}, nil, nil
			},
		},
		{
			// One decision through the full middleware + handler stack
			// (request decode, cache hit, threshold draw, JSON reply).
			Name: "decide_single", Class: "latency", Iters: 1500,
			Setup: func() (Op, func(), error) {
				h, err := defaultHandler()
				if err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					body := fmt.Sprintf(`{"vehicle_id":"bench-%d","area":"chicago"}`, i)
					return doRequest(h, "/v1/decide", body)
				}, nil, nil
			},
		},
		{
			// Same path with a non-default break-even interval: the
			// cache-miss branch deriving a fresh policy per request.
			Name: "decide_custom_b", Class: "latency", Iters: 1000,
			Setup: func() (Op, func(), error) {
				h, err := defaultHandler()
				if err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					body := fmt.Sprintf(`{"vehicle_id":"bench-%d","area":"chicago","b":35}`, i)
					return doRequest(h, "/v1/decide", body)
				}, nil, nil
			},
		},
		{
			// A 64-item batch (fixed body, so the measured work is
			// decode + 64 decisions in input order + encode).
			Name: "decide_batch_64", Class: "latency", Iters: 150,
			Setup: func() (Op, func(), error) {
				h, err := defaultHandler()
				if err != nil {
					return nil, nil, err
				}
				var b strings.Builder
				b.WriteString(`{"seed":1,"requests":[`)
				for i := 0; i < 64; i++ {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `{"vehicle_id":"batch-%d","area":"chicago"}`, i)
				}
				b.WriteString(`]}`)
				body := b.String()
				return func(i int) error {
					return doRequest(h, "/v1/decide/batch", body)
				}, nil, nil
			},
		},
		{
			// Synthetic fleet generation for one small area (the
			// deterministic per-vehicle stream derivation included).
			Name: "fleet_generate", Class: "throughput", Iters: 20,
			Setup: func() (Op, func(), error) {
				cfg := fleet.Chicago
				cfg.Vehicles = 4
				if err := cfg.Validate(); err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					_, err := cfg.Generate(stats.NewRNG(suiteSeed + uint64(i)))
					return err
				}, nil, nil
			},
		},
		{
			// Multislope strategy preparation: envelope construction,
			// per-segment stats projection, and the constrained vertex
			// selection for every segment — what the multislope3 engine
			// pays on a cache miss or stats update.
			Name: "multislope_prepare", Class: "cpu", Iters: 2000,
			Setup: func() (Op, func(), error) {
				st, err := chicagoStats()
				if err != nil {
					return nil, nil, err
				}
				eng, err := policy.Lookup(policy.MultislopeEngine)
				if err != nil {
					return nil, nil, err
				}
				s := policy.Stats{B: suiteB, Mu: st.MuBMinus, Q: st.QBPlus}
				return func(i int) error {
					_, err := eng.Prepare(s)
					return err
				}, nil, nil
			},
		},
		{
			// One multislope3 decision through the full HTTP stack: the
			// engine dispatch, the cached (area, engine) strategy, and
			// the two-rung schedule encoding.
			Name: "decide_multislope", Class: "latency", Iters: 1500,
			Setup: func() (Op, func(), error) {
				h, err := defaultHandler()
				if err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					body := fmt.Sprintf(`{"vehicle_id":"bench-%d","area":"chicago","policy":"multislope3"}`, i)
					return doRequest(h, "/v1/decide", body)
				}, nil, nil
			},
		},
		{
			// One streamed observation through the full HTTP stack:
			// request decode, the per-area tracker update (EWMA moments
			// plus the CUSUM step), and the JSON reply. Stop lengths
			// stay in one regime so no re-tune amortizes into the mean.
			Name: "observe_stream", Class: "latency", Iters: 2000,
			Setup: func() (Op, func(), error) {
				h, err := defaultHandler()
				if err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					body := fmt.Sprintf(`{"area":"chicago","stop_sec":%d}`, 5+i%20)
					return doRequest(h, "/v1/observe", body)
				}, nil, nil
			},
		},
		{
			// Cache reads spread over 1024 areas — the decide lookup
			// cost at scale, where the area map and the views miss the
			// CPU caches instead of one hot entry. The name predates
			// the per-area views and is kept as a compare key.
			Name: "shard_decide", Class: "cpu", Iters: 10000,
			Setup: func() (Op, func(), error) {
				areas := server.SyntheticAreaStates(1024, suiteB)
				cache, err := server.NewCache(areas, nil)
				if err != nil {
					return nil, nil, err
				}
				ids := make([]string, len(areas))
				for j, a := range areas {
					ids[j] = a.ID
				}
				return func(i int) error {
					if _, ok := cache.Get(ids[(i*31)%len(ids)]); !ok {
						return fmt.Errorf("synthetic area missing from cache")
					}
					return nil
				}, nil, nil
			},
		},
		{
			// One prediction-aware decision through the full HTTP stack:
			// params resolution, the prediction block validation, and the
			// softml blend on top of the cached constrained fallback.
			Name: "decide_softml", Class: "latency", Iters: 1500,
			Setup: func() (Op, func(), error) {
				h, err := defaultHandler()
				if err != nil {
					return nil, nil, err
				}
				return func(i int) error {
					body := fmt.Sprintf(`{"vehicle_id":"bench-%d","area":"chicago","policy":"softml","params":{"lambda":0.5},"prediction":{"predicted_stop_s":%d,"confidence":0.8}}`, i, 5+i%90)
					return doRequest(h, "/v1/decide", body)
				}, nil, nil
			},
		},
		{
			// A small consistency-robustness sweep: the 5x5
			// lambda-by-predictor grid over a 100-stop trace, including
			// the per-cell WorstCaseMixedCost robustness bound — what
			// `idlectl frontier` pays per table, scaled down.
			Name: "frontier_sweep", Class: "throughput", Iters: 30,
			Setup: func() (Op, func(), error) {
				st, err := chicagoStats()
				if err != nil {
					return nil, nil, err
				}
				rng := rand.New(rand.NewPCG(suiteSeed, 0x46524e54))
				stops := make([]float64, 100)
				for j := range stops {
					stops[j] = 1 + rng.Float64()*(4*suiteB-1)
				}
				cfg := simulator.FrontierConfig{
					Costs: costmodel.CostRatio{IdlingCentsPerSec: 1, RestartCents: suiteB},
					Stats: st,
					Stops: stops,
				}
				return func(i int) error {
					cfg.Seed = suiteSeed + uint64(i)
					_, err := simulator.SweepFrontier(cfg)
					return err
				}, nil, nil
			},
		},
		{
			// One competitive-ratio ledger join: issue a pending decision
			// and settle it — the pure library cost every opted-in
			// decide/observe pair adds on top of the serving path
			// (pending-table insert/remove, realized-cost computation,
			// accumulator and breach-detector advance).
			Name: "ledger_settle", Class: "cpu", Iters: 20000,
			Setup: func() (Op, func(), error) {
				led := ledger.New(ledger.Config{})
				return func(i int) error {
					id := fmt.Sprintf("bench-%d", i)
					if _, err := led.Issue(ledger.Pending{
						ID: id, Area: "chicago", Engine: "constrained@v1",
						B: suiteB, ThresholdSec: suiteB, Bound: 2,
						IssuedUnixMS: int64(i),
					}); err != nil {
						return err
					}
					_, err := led.Settle(id, float64(5+i%50), int64(i)+3)
					return err
				}, nil, nil
			},
		},
		{
			// GET /v1/cr with a populated ledger: the accumulator sweep,
			// the variance-band computation per row, and the JSON
			// rendering — what every dashboard refresh pays.
			Name: "cr_snapshot", Class: "latency", Iters: 2000,
			Setup: func() (Op, func(), error) {
				h, err := defaultHandler()
				if err != nil {
					return nil, nil, err
				}
				// Populate the table through the real wire path: 64
				// ledger-opted decides settled by observes.
				for j := 0; j < 64; j++ {
					w := httptest.NewRecorder()
					body := fmt.Sprintf(`{"vehicle_id":"bench-%d","area":"chicago","seed":7,"ledger":true}`, j)
					req := httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(body))
					req.Header.Set("Content-Type", "application/json")
					h.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						return nil, nil, fmt.Errorf("seed decide %d: status %d", j, w.Code)
					}
					var dec struct {
						DecisionID string `json:"decision_id"`
					}
					if err := json.Unmarshal(w.Body.Bytes(), &dec); err != nil || dec.DecisionID == "" {
						return nil, nil, fmt.Errorf("seed decide %d: no decision id", j)
					}
					if err := doRequest(h, "/v1/observe",
						fmt.Sprintf(`{"area":"chicago","stop_sec":%d,"decision_id":%q}`, 5+j%40, dec.DecisionID)); err != nil {
						return nil, nil, err
					}
				}
				return func(i int) error {
					return doGet(h, "/v1/cr")
				}, nil, nil
			},
		},
		{
			// The event-driven simulator over a fixed 500-stop trace
			// with the constrained policy.
			Name: "simulator_run", Class: "throughput", Iters: 300,
			Setup: func() (Op, func(), error) {
				st, err := chicagoStats()
				if err != nil {
					return nil, nil, err
				}
				pol, err := skirental.NewConstrained(suiteB, st)
				if err != nil {
					return nil, nil, err
				}
				// A deterministic trace cycling through short stops,
				// near-break-even stops and long stops.
				lengths := []float64{3, 9, 17, 26, 31, 48, 95, 310, 700}
				stops := make([]float64, 500)
				for i := range stops {
					stops[i] = lengths[i%len(lengths)]
				}
				cfg := simulator.Config{
					Costs:  costmodel.CostRatio{IdlingCentsPerSec: 1, RestartCents: suiteB},
					Policy: pol,
				}
				return func(i int) error {
					_, err := simulator.Run(cfg, stops, stats.NewRNG(suiteSeed+uint64(i)))
					return err
				}, nil, nil
			},
		},
	}
}

// chicagoStats measures the Chicago area's constrained pair at the
// suite operating point — the same derivation idled's default config
// serves.
func chicagoStats() (skirental.Stats, error) {
	areas, err := server.DefaultAreaStates(suiteB)
	if err != nil {
		return skirental.Stats{}, err
	}
	for _, a := range areas {
		if a.ID == "chicago" {
			return a.Stats(), nil
		}
	}
	return skirental.Stats{}, fmt.Errorf("no chicago in default areas")
}

// defaultCache builds the serving strategy cache over the default
// areas.
func defaultCache() (*server.Cache, error) {
	areas, err := server.DefaultAreaStates(suiteB)
	if err != nil {
		return nil, err
	}
	return server.NewCache(areas, nil)
}

// defaultHandler builds a full idled handler tree (no listener) over
// the default areas.
func defaultHandler() (http.Handler, error) {
	areas, err := server.DefaultAreaStates(suiteB)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Areas: areas})
	if err != nil {
		return nil, err
	}
	return srv.Handler(), nil
}

// doGet drives one GET through the handler tree in-process and checks
// for a 200.
func doGet(h http.Handler, path string) error {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, w.Code, w.Body.String())
	}
	return nil
}

// doRequest drives one request through the handler tree in-process and
// checks for a 200.
func doRequest(h http.Handler, path, body string) error {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, w.Code, w.Body.String())
	}
	return nil
}
