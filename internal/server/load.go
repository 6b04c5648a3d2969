package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"idlereduce/internal/obs"
	"idlereduce/internal/parallel"
)

// LoadOptions parameterize the load harness (`idled loadtest`).
type LoadOptions struct {
	// BaseURL is the target server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent client goroutines
	// (default 16).
	Clients int
	// Requests is the number of batch requests each client issues
	// (default 50).
	Requests int
	// Batch is the number of decisions per batch request (default 8).
	Batch int
	// Seed is the decision root seed sent with every batch.
	Seed uint64
	// Policy is the engine spec stamped on every decision request
	// (e.g. "multislope3"); empty exercises the target's default
	// engine.
	Policy string
	// Areas round-robins request areas; empty discovers them from
	// GET /v1/areas.
	Areas []string
	// ObserveFraction is the share of requests sent as observe batches
	// instead of decide batches, in [0, 1). Zero keeps the legacy pure
	// decide run. The interleave is deterministic per (client, request)
	// index, never sampled.
	ObserveFraction float64
	// HotAreas concentrates observe traffic on the first min(HotAreas,
	// len(areas)) areas (default 64): streaming estimators need tens of
	// stops per area to warm, so spreading observations over 100k areas
	// would never re-tune anything.
	HotAreas int
	// DriftAfter injects a regime change into the observed stop
	// lengths after this fraction of each client's request sequence
	// (default 0.5): post-drift stops are systematically longer, so
	// the CUSUM detectors on hot areas provably alarm mid-run.
	DriftAfter float64
	// MissFraction is the share of decide slots carrying a custom
	// break-even interval, in [0, 1). Custom-B decisions bypass the
	// strategy cache, so the measured hit-rate has a controlled
	// expectation instead of pinning at 1.0.
	MissFraction float64
	// SettleFraction is the share of request slots exercising the
	// competitive-ratio join, in [0, 1): a ledger-opted decide batch
	// followed immediately by an observe batch settling each returned
	// decision_id. Every 16th settle slot corrupts one id, so the
	// orphan path (fail-closed 404 inside a 200 batch) is exercised
	// too. The interleave is deterministic per (client, request) index.
	SettleFraction float64
	// Timeout is the per-request client timeout (default 30s).
	Timeout time.Duration
	// Transport overrides the HTTP transport (tests drive an in-process
	// handler through httptest with a shared transport).
	Transport http.RoundTripper
	// Recorder collects the harness metrics; nil allocates a private
	// one. Passing a recorder lets callers snapshot the full registry
	// after the run (`idled loadtest -out`), in the same schema the
	// bench and replay tooling writes.
	Recorder *obs.Recorder
}

// LoadReport summarizes one load run. Throughput and latency are read
// back from the harness's obs metrics registry, the same pipeline the
// server uses, so the numbers line up with a /metrics scrape.
type LoadReport struct {
	Clients   int   `json:"clients"`
	Batch     int   `json:"batch"`
	Requests  int64 `json:"requests"`
	Decisions int64 `json:"decisions"`
	// Overloaded counts 429 replies (the server shedding load);
	// Errors counts transport failures and other non-2xx replies.
	Overloaded int64   `json:"overloaded"`
	Errors     int64   `json:"errors"`
	Duration   float64 `json:"duration_sec"`
	// RequestQPS and DecisionQPS are achieved throughput.
	RequestQPS  float64 `json:"request_qps"`
	DecisionQPS float64 `json:"decision_qps"`
	// Observations/Alarms/Retunes summarize the observe stream: stops
	// accepted, CUSUM drift alarms raised, and strategy re-derivations
	// those alarms triggered (from the batch roll-up counts).
	Observations int64 `json:"observations"`
	Alarms       int64 `json:"alarms"`
	Retunes      int64 `json:"retunes"`
	// Settled counts decisions joined to their realized stop through
	// the ledger; Orphans counts deliberately corrupted decision ids
	// whose settle was rejected fail-closed (both zero unless
	// SettleFraction > 0).
	Settled int64 `json:"settled"`
	Orphans int64 `json:"orphans"`
	// CacheHitRate is the fraction of decisions served from the
	// precomputed strategy cache, counted client-side from the Cached
	// response field (so it works against remote targets too).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// P50/P90/P99/Max are client-observed batch latencies in ms, over
	// every request kind.
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
	// DecideP99/ObserveP99 split the tail by request kind (observe is
	// zero on pure decide runs).
	DecideP99  float64 `json:"decide_p99_ms"`
	ObserveP99 float64 `json:"observe_p99_ms"`
	// AllocsPerOp is the harness process's heap allocations per served
	// decision (runtime.MemStats deltas across the run). With an
	// in-process target sharing the recorder this includes the server
	// side; against a remote -target it is client cost only.
	AllocsPerOp float64 `json:"decide_allocs_per_op"`
	// GCPauseMs / GCCycles are the Go GC stop-the-world pause total
	// (ms) and collection count over the run, from the same deltas.
	GCPauseMs float64 `json:"gc_pause_total_ms"`
	GCCycles  int64   `json:"gc_cycles"`
	// TopAreas attributes decide latency per area (present when the
	// recorder carries the server-side decide_area_ms histograms, i.e.
	// in-process runs with a shared recorder).
	TopAreas []AreaLatency `json:"top_areas,omitempty"`
}

// AreaLatency is one area's latency attribution in a load report.
type AreaLatency struct {
	Area  string  `json:"area"`
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// String renders the report as the loadtest's human output.
func (r LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadtest: %d clients x batch %d for %.2fs\n", r.Clients, r.Batch, r.Duration)
	fmt.Fprintf(&b, "  requests   %8d  (%.0f req/s)\n", r.Requests, r.RequestQPS)
	fmt.Fprintf(&b, "  decisions  %8d  (%.0f decisions/s, cache hit-rate %.3f)\n", r.Decisions, r.DecisionQPS, r.CacheHitRate)
	if r.Observations > 0 {
		fmt.Fprintf(&b, "  observed   %8d  stops  (%d alarms, %d retunes)\n", r.Observations, r.Alarms, r.Retunes)
	}
	if r.Settled > 0 || r.Orphans > 0 {
		fmt.Fprintf(&b, "  settled    %8d  ledger joins  (%d orphaned ids rejected)\n", r.Settled, r.Orphans)
	}
	fmt.Fprintf(&b, "  overloaded %8d  (429 load-shed replies)\n", r.Overloaded)
	fmt.Fprintf(&b, "  errors     %8d\n", r.Errors)
	fmt.Fprintf(&b, "  latency ms p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n", r.P50, r.P90, r.P99, r.Max)
	if r.Observations > 0 {
		fmt.Fprintf(&b, "  tail split p99 decide %.2f  observe %.2f ms\n", r.DecideP99, r.ObserveP99)
	}
	fmt.Fprintf(&b, "  alloc      %8.1f allocs/decision  gc pauses %.2f ms in %d cycles\n",
		r.AllocsPerOp, r.GCPauseMs, r.GCCycles)
	for i, a := range r.TopAreas {
		if i == 0 {
			fmt.Fprintf(&b, "  per-area decide latency (top %d by total time):\n", len(r.TopAreas))
		}
		fmt.Fprintf(&b, "    %-12s %8d decisions  p50 %.3f  p99 %.3f  max %.3f ms\n",
			a.Area, a.Count, a.P50, a.P99, a.Max)
	}
	return b.String()
}

// RunLoad drives concurrent batch-decision load at a server and
// reports achieved throughput and latency quantiles from a metrics
// registry. The request stream is deterministic: vehicle IDs and area
// assignment depend only on (client, request, slot) indices.
func RunLoad(ctx context.Context, opts LoadOptions) (LoadReport, error) {
	if opts.BaseURL == "" {
		return LoadReport{}, fmt.Errorf("server: loadtest: base URL required")
	}
	if opts.Clients <= 0 {
		opts.Clients = 16
	}
	if opts.Requests <= 0 {
		opts.Requests = 50
	}
	if opts.Batch <= 0 {
		opts.Batch = 8
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.HotAreas <= 0 {
		opts.HotAreas = 64
	}
	if opts.DriftAfter <= 0 || opts.DriftAfter >= 1 {
		opts.DriftAfter = 0.5
	}
	client := &http.Client{Timeout: opts.Timeout, Transport: opts.Transport}
	base := strings.TrimRight(opts.BaseURL, "/")

	areas := opts.Areas
	if len(areas) == 0 {
		var err error
		if areas, err = discoverAreas(ctx, client, base); err != nil {
			return LoadReport{}, err
		}
	}
	hot := opts.HotAreas
	if hot > len(areas) {
		hot = len(areas)
	}
	driftAt := int(opts.DriftAfter * float64(opts.Requests))

	rec := opts.Recorder
	if rec == nil {
		rec = obs.NewRecorder("loadtest", obs.NewRegistry(), nil)
	}
	lat := rec.Registry().Histogram("loadtest_request_ms")
	decideLat := rec.Registry().Histogram("loadtest_decide_ms")
	observeLat := rec.Registry().Histogram("loadtest_observe_ms")
	// done records one request sent at sent: its latency, over every
	// request and in its kind's histogram, the request count, and its
	// failure class (a 429 is load shed; a transport failure or any
	// other non-200 reply is an error). It reports whether the reply
	// was a 200 whose counts the caller may add.
	done := func(kind *obs.Histogram, sent time.Time, status int, err error) bool {
		ms := float64(time.Since(sent)) / float64(time.Millisecond)
		lat.Observe(ms)
		kind.Observe(ms)
		rec.Add("loadtest_requests_total", 1)
		switch {
		case err == nil && status == http.StatusTooManyRequests:
			rec.Add("loadtest_429_total", 1)
		case err != nil || status != http.StatusOK:
			rec.Add("loadtest_errors_total", 1)
		default:
			return true
		}
		return false
	}

	// Bracket the run with MemStats reads: allocation rate per served
	// decision and GC pause totals land in the registry (and hence the
	// -out snapshot) alongside the latency series, the same metric
	// vocabulary the bench captures use.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	t0 := time.Now()
	err := parallel.ForEach(ctx, "loadtest_clients", opts.Clients, opts.Clients,
		func(ctx context.Context, c int) error {
			for r := 0; r < opts.Requests; r++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				// The decide/observe interleave is a pure function of
				// the (client, request) index — no sampling, so a run
				// is exactly reproducible.
				if opts.ObserveFraction > 0 && float64((c*131+r*17)%100) < opts.ObserveFraction*100 {
					req := BatchObserveRequest{Observations: make([]ObserveRequest, opts.Batch)}
					for i := range req.Observations {
						req.Observations[i] = ObserveRequest{
							Area:      areas[(c*7+r*3+i)%hot],
							StopSec:   syntheticStop(c, r, i, r >= driftAt),
							VehicleID: fmt.Sprintf("load-%04d-%06d", c, r*opts.Batch+i),
						}
					}
					sent := time.Now()
					status, accepted, alarms, retunes, _, err := postObserveBatch(ctx, client, base, req)
					if done(observeLat, sent, status, err) {
						rec.Add("loadtest_observations_total", int64(accepted))
						rec.Add("loadtest_alarms_total", int64(alarms))
						rec.Add("loadtest_retunes_total", int64(retunes))
					}
					continue
				}
				// Settle slots exercise the full competitive-ratio join:
				// a ledger-opted decide batch, then an observe batch that
				// settles every returned decision id.
				settleSlot := opts.SettleFraction > 0 && float64((c*53+r*29)%100) < opts.SettleFraction*100
				req := BatchDecideRequest{Seed: opts.Seed, Requests: make([]DecideRequest, opts.Batch)}
				for i := range req.Requests {
					req.Requests[i] = DecideRequest{
						VehicleID: fmt.Sprintf("load-%04d-%06d", c, r*opts.Batch+i),
						Area:      areas[(c+r+i)%len(areas)],
						Policy:    opts.Policy,
						Ledger:    settleSlot,
					}
					// A controlled share of slots carries a custom
					// break-even interval, forcing a cache-miss prepare.
					if opts.MissFraction > 0 && float64((c*37+r*13+i*7)%100) < opts.MissFraction*100 {
						req.Requests[i].B = 29 + float64(i%3)
					}
				}
				sent := time.Now()
				status, decided, cached, ids, err := postBatch(ctx, client, base, req)
				if !done(decideLat, sent, status, err) {
					continue
				}
				rec.Add("loadtest_decisions_total", int64(decided))
				rec.Add("loadtest_cached_total", int64(cached))
				if !settleSlot {
					continue
				}
				// Every 16th settle slot corrupts one decision id: the
				// settle is rejected fail-closed as a per-item 404 inside
				// a 200 batch, so the orphan path stays exercised without
				// tripping the gate's error-free requirement.
				orphans := 0
				if (c*31+r)%16 == 0 && len(ids) > 0 && ids[0] != "" {
					ids[0] = fmt.Sprintf("load-orphan-%04d-%06d", c, r)
					orphans = 1
				}
				var oreq BatchObserveRequest
				for i, id := range ids {
					if id == "" {
						continue
					}
					oreq.Observations = append(oreq.Observations, ObserveRequest{
						Area:       areas[(c+r+i)%len(areas)],
						StopSec:    syntheticStop(c, r, i, r >= driftAt),
						VehicleID:  fmt.Sprintf("load-%04d-%06d", c, r*opts.Batch+i),
						DecisionID: id,
					})
				}
				if len(oreq.Observations) == 0 {
					continue
				}
				sent = time.Now()
				status, accepted, alarms, retunes, settled, err := postObserveBatch(ctx, client, base, oreq)
				if done(observeLat, sent, status, err) {
					rec.Add("loadtest_observations_total", int64(accepted))
					rec.Add("loadtest_alarms_total", int64(alarms))
					rec.Add("loadtest_retunes_total", int64(retunes))
					rec.Add("loadtest_settled_total", int64(settled))
					rec.Add("loadtest_orphans_total", int64(orphans))
				}
			}
			return nil
		})
	dur := time.Since(t0).Seconds()
	if err != nil {
		return LoadReport{}, err
	}
	runtime.ReadMemStats(&ms1)
	decided := rec.Registry().SumCounterValues("loadtest_decisions_total")
	rec.Set("loadtest_mallocs_total", float64(ms1.Mallocs-ms0.Mallocs))
	rec.Set("loadtest_alloc_bytes_total", float64(ms1.TotalAlloc-ms0.TotalAlloc))
	rec.Set("loadtest_gc_pause_total_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	rec.Set("loadtest_gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	if decided > 0 {
		rec.Set("decide_allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(decided))
	}

	snap := rec.Snapshot()
	report := LoadReport{
		Clients:  opts.Clients,
		Batch:    opts.Batch,
		Duration: dur,
	}
	report.Requests, _ = snap.CounterValue("loadtest_requests_total")
	report.Decisions, _ = snap.CounterValue("loadtest_decisions_total")
	report.Overloaded, _ = snap.CounterValue("loadtest_429_total")
	report.Errors, _ = snap.CounterValue("loadtest_errors_total")
	report.Observations, _ = snap.CounterValue("loadtest_observations_total")
	report.Alarms, _ = snap.CounterValue("loadtest_alarms_total")
	report.Retunes, _ = snap.CounterValue("loadtest_retunes_total")
	report.Settled, _ = snap.CounterValue("loadtest_settled_total")
	report.Orphans, _ = snap.CounterValue("loadtest_orphans_total")
	if hits, ok := snap.CounterValue("loadtest_cached_total"); ok && report.Decisions > 0 {
		report.CacheHitRate = float64(hits) / float64(report.Decisions)
	}
	if h, ok := snap.HistogramValue("loadtest_request_ms"); ok {
		report.P50, report.P90, report.P99, report.Max = h.P50, h.P90, h.P99, h.Max
	}
	if h, ok := snap.HistogramValue("loadtest_decide_ms"); ok {
		report.DecideP99 = h.P99
	}
	if h, ok := snap.HistogramValue("loadtest_observe_ms"); ok {
		report.ObserveP99 = h.P99
	}
	report.AllocsPerOp, _ = snap.GaugeValue("decide_allocs_per_op")
	report.GCPauseMs, _ = snap.GaugeValue("loadtest_gc_pause_total_ms")
	if c, ok := snap.GaugeValue("loadtest_gc_cycles"); ok {
		report.GCCycles = int64(c)
	}
	// Per-area attribution: present when the recorder is shared with
	// an in-process server (the self-contained loadtest mode).
	for _, h := range snap.TopHistograms("decide_area_ms", 5) {
		area, _ := obs.LabelValue(h.Name, "area")
		report.TopAreas = append(report.TopAreas, AreaLatency{
			Area: area, Count: h.Count, P50: h.P50, P99: h.P99, Max: h.Max,
		})
	}
	if dur > 0 {
		report.RequestQPS = float64(report.Requests) / dur
		report.DecisionQPS = float64(report.Decisions) / dur
	}
	return report, nil
}

// syntheticStop fabricates a deterministic stop length (seconds) for
// one observe slot. Pre-drift stops cluster short (5–24s); post-drift
// stops are systematically longer (22–60s), so the CUSUM mean on the
// capped length shifts enough to alarm on every hot area.
func syntheticStop(c, r, i int, drifted bool) float64 {
	k := c*101 + r*19 + i*7
	if drifted {
		return 22 + float64(k%39)
	}
	return 5 + float64(k%20)
}

// postBatch sends one batch request and returns (status, decisions,
// cache hits, per-slot decision ids). The id slice is index-aligned
// with the request slots; slots whose decision failed or carried no
// ledger opt-in hold "".
func postBatch(ctx context.Context, client *http.Client, base string, req BatchDecideRequest) (int, int, int, []string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/decide/batch", bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0, 0, nil, nil
	}
	var batch BatchDecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		return resp.StatusCode, 0, 0, nil, err
	}
	decided, cached := 0, 0
	ids := make([]string, len(batch.Results))
	for i, item := range batch.Results {
		if item.Decision != nil {
			decided++
			if item.Decision.Cached {
				cached++
			}
			ids[i] = item.Decision.DecisionID
		}
	}
	return resp.StatusCode, decided, cached, ids, nil
}

// postObserveBatch sends one observe batch and returns (status,
// accepted, alarms, retunes, settled) from the roll-up counts.
func postObserveBatch(ctx context.Context, client *http.Client, base string, req BatchObserveRequest) (int, int, int, int, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/observe/batch", bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0, 0, 0, 0, nil
	}
	var batch BatchObserveResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		return resp.StatusCode, 0, 0, 0, 0, err
	}
	return resp.StatusCode, batch.Accepted, batch.Alarms, batch.Retunes, batch.Settled, nil
}

// discoverAreas fetches the target's configured area IDs.
func discoverAreas(ctx context.Context, client *http.Client, base string) ([]string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/areas", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("server: loadtest: discover areas: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: loadtest: discover areas: status %d", resp.StatusCode)
	}
	var list AreasResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("server: loadtest: discover areas: %w", err)
	}
	if len(list.Areas) == 0 {
		return nil, fmt.Errorf("server: loadtest: target has no areas")
	}
	ids := make([]string, len(list.Areas))
	for i, a := range list.Areas {
		ids[i] = a.ID
	}
	return ids, nil
}
