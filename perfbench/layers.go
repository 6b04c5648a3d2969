package main

// Per-layer measurements of the traced run. Each layer is measured
// from outside, by timing calls into its package's public functions on
// the workload's own inputs, with one span per chunk of calls under one
// span per layer; the per-layer metrics are then read back from those
// spans. Ratios that only the serving run can produce come from its
// /metrics scrape and client tallies; where the workload's server does
// not exercise a layer (hot_decide has no observes, paper_all no
// server), they come from the in-process replay servers instead.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/analysis"
	"idlereduce/internal/experiments"
	"idlereduce/internal/fleet"
	"idlereduce/internal/ledger"
	"idlereduce/internal/obs"
	"idlereduce/internal/parallel"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
	"idlereduce/internal/server"
	"idlereduce/internal/skirental"
)

// layerInputs are a workload's inputs to the per-layer replay.
type layerInputs struct {
	areas        []server.AreaState
	areasJSON    []byte    // the areas file (nil: rendered from areas)
	decideBodies [][]byte  // single-decide bodies
	sinks        bool      // the workload's server runs trace and audit sinks
	gen          *fleetGen // batch, observe and settle source (nil: one over areas)

	// From the serving run (nil served for paper_all).
	served         *servedRun
	clientMeanMS   float64
	auditVerify    time.Duration
	auditRecords   int
	dropShare      float64
	alarms         int64
	retunes        int64
	settleAttempts int64
	settled        int64

	// From paper_all's own run (nil: measured here).
	fleet  *fleet.Fleet
	setups []float64
	passes []paperPass
}

// layerBudget is the time spent on each micro-measured layer.
const layerBudget = 200 * time.Millisecond

// layerRun collects per-layer results into the report.
type layerRun struct {
	e   *env
	rep *report
}

// loop calls fn in chunks of calls until layerBudget is spent,
// recording one span (with allocations and errors) per chunk.
func (lr *layerRun) loop(name string, chunk int, fn func(i int) error) layerRow {
	parent := lr.e.spans.open("layer."+name, time.Now())
	deadline := time.Now().Add(layerBudget)
	var ms runtime.MemStats
	i := 0
	for first := true; first || time.Now().Before(deadline); first = false {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		var errs int64
		t0 := time.Now()
		for j := 0; j < chunk; j++ {
			if fn(i) != nil {
				errs++
			}
			i++
		}
		t1 := time.Now()
		runtime.ReadMemStats(&ms)
		lr.e.spans.add("call."+name, parent, "", t0, t1, int64(chunk), ms.Mallocs-m0, errs)
	}
	lr.e.spans.close(parent, time.Now())
	return lr.row(name, parent)
}

// each records one span per call of a function that times its own
// measured part (work before or after it is excluded). It makes at
// least n calls and keeps calling until budget is spent.
func (lr *layerRun) each(name string, n int, budget time.Duration, fn func(i int) (t0, t1 time.Time, err error)) layerRow {
	parent := lr.e.spans.open("layer."+name, time.Now())
	deadline := time.Now().Add(budget)
	for i := 0; i < n || time.Now().Before(deadline); i++ {
		t0, t1, err := fn(i)
		var errs int64
		if err != nil {
			errs = 1
			lr.rep.fail("layer %s: %v", name, err)
		}
		lr.e.spans.add("call."+name, parent, "", t0, t1, 1, 0, errs)
	}
	lr.e.spans.close(parent, time.Now())
	return lr.row(name, parent)
}

// row reads a layer's totals back from its spans.
func (lr *layerRun) row(name string, parent int) layerRow {
	calls, busy, allocs, errs := lr.e.spans.layerTotals(parent)
	r := layerRow{name: name, calls: calls, busy: busy, errors: errs}
	if calls > 0 {
		r.perCall = busy / time.Duration(calls)
		r.allocs = float64(allocs) / float64(calls)
	}
	lr.rep.rows = append(lr.rep.rows, r)
	return r
}

// put adds one per-layer metric.
func (lr *layerRun) put(name, unit string, v float64) {
	lr.rep.layers = append(lr.rep.layers, metric{name, unit, v})
}

func ns(d time.Duration) float64  { return float64(d.Nanoseconds()) }
func us(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func sec(d time.Duration) float64 { return d.Seconds() }

// replyRecorder is a reusable http.ResponseWriter, so in-process
// ServeHTTP timings carry no harness allocations.
type replyRecorder struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func newReplyRecorder() *replyRecorder { return &replyRecorder{h: http.Header{}} }

func (w *replyRecorder) Header() http.Header { return w.h }
func (w *replyRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *replyRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(b)
}
func (w *replyRecorder) reset() {
	clear(w.h)
	w.status = 0
	w.buf.Reset()
}

// reusableRequest is one *http.Request whose body is swapped per call.
type reusableRequest struct {
	req  *http.Request
	body bodyReader
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func newReusableRequest(method, path string) *reusableRequest {
	r := &reusableRequest{}
	r.req, _ = http.NewRequest(method, "http://idled"+path, nil)
	r.req.Header.Set("Content-Type", "application/json")
	return r
}

func (r *reusableRequest) with(body []byte) *http.Request {
	r.body.Reset(body)
	r.req.Body = &r.body
	r.req.ContentLength = int64(len(body))
	return r.req
}

// lineCounter is a trace/audit sink that counts and discards records,
// or keeps them when keep is set.
type lineCounter struct {
	lines atomic.Int64
	keep  bool
	buf   bytes.Buffer
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.lines.Add(int64(bytes.Count(p, []byte{'\n'})))
	if c.keep {
		c.buf.Write(p)
	}
	return len(p), nil
}

// replayServer is an in-process server driven through ServeHTTP.
type replayServer struct {
	h            http.Handler
	trace, audit *lineCounter
	done         chan error
	cancel       context.CancelFunc
}

// newReplayServer builds a server over areas; with sinks the trace
// sink counts records and the audit sink keeps them for VerifyAudit.
// It is also served on a loopback port so that stop can drain it,
// which is what flushes the sinks.
func newReplayServer(areas []server.AreaState, sinks bool) (*replayServer, error) {
	rs := &replayServer{}
	cfg := server.Config{Addr: "127.0.0.1:0", Areas: areas, Retune: retuneConfig}
	if sinks {
		rs.trace, rs.audit = &lineCounter{}, &lineCounter{keep: true}
		cfg.TraceLog, cfg.AuditLog = rs.trace, rs.audit
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Listen(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rs.h, rs.cancel, rs.done = srv.Handler(), cancel, make(chan error, 1)
	go func() { rs.done <- srv.Serve(ctx) }()
	return rs, nil
}

// serve runs one request through the handler.
func (rs *replayServer) serve(w *replyRecorder, rq *reusableRequest, body []byte) error {
	w.reset()
	rs.h.ServeHTTP(w, rq.with(body))
	if w.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", w.status, bytes.TrimSpace(w.buf.Bytes()))
	}
	return nil
}

// scrape returns the server's metrics snapshot.
func (rs *replayServer) scrape() (obs.Snapshot, error) {
	w := newReplyRecorder()
	rq := newReusableRequest(http.MethodGet, "/metrics?format=json")
	rs.h.ServeHTTP(w, rq.with(nil))
	var s obs.Snapshot
	err := json.Unmarshal(w.buf.Bytes(), &s)
	return s, err
}

// stop drains the server, flushing its sinks.
func (rs *replayServer) stop() error {
	rs.cancel()
	return <-rs.done
}

// measureLayers runs every per-layer measurement on the workload's
// inputs and adds the per-layer metrics to the report.
func measureLayers(e *env, rep *report, in *layerInputs) error {
	lr := &layerRun{e: e, rep: rep}
	if in.gen == nil {
		ids := make([]string, len(in.areas))
		for i, a := range in.areas {
			ids[i] = a.ID
		}
		in.gen = newFleetGen(e.seed, 0, in.areas, ids)
	}
	// The fleet_100k replay takes more decide batches: their items are
	// also its cache.get area sequence.
	n := 64
	if in.areasJSON != nil {
		n = 4096
	}
	ops := collectOps(in.gen, n)
	if err := measureServer(lr, in, ops); err != nil {
		return err
	}
	if err := measureCore(lr, in, areaSeq(in, ops.decides)); err != nil {
		return err
	}
	return measureReproduction(lr, in)
}

// layerOps are the fleet-schedule requests the replay sends.
type layerOps struct {
	fill, decides, observes, settles []fleetOp
}

// collectOps draws the warm-up fill, then at least n decide batches and
// 64 observe batches and settle pairs from the schedule.
func collectOps(g *fleetGen, n int) layerOps {
	var o layerOps
	for len(o.decides) < n || len(o.observes) < 64 || len(o.settles) < 64 {
		op := g.next()
		switch op.kind {
		case opFill:
			o.fill = append(o.fill, op)
		case opDecide:
			o.decides = append(o.decides, op)
		case opObserve:
			o.observes = append(o.observes, op)
		case opSettle:
			o.settles = append(o.settles, op)
		}
	}
	return o
}

// measureServer covers the server layer: ServeHTTP per request kind,
// boot, audit replay, and the scrape-derived ratios.
func measureServer(lr *layerRun, in *layerInputs, ops layerOps) error {
	decides, observes, settles := ops.decides, ops.observes, ops.settles
	dec, err := newReplayServer(in.areas, in.sinks)
	if err != nil {
		return err
	}
	fl := dec
	if !in.sinks {
		// The batch kinds belong to fleet_100k, which runs the sinks.
		if fl, err = newReplayServer(in.areas, true); err != nil {
			return err
		}
	}
	w := newReplyRecorder()
	rqDecide := newReusableRequest(http.MethodPost, "/v1/decide")
	rqBatch := newReusableRequest(http.MethodPost, "/v1/decide/batch")
	rqObserve := newReusableRequest(http.MethodPost, "/v1/observe/batch")
	// The warm-up fill first, untimed.
	for _, op := range ops.fill {
		if err := fl.serve(w, rqBatch, op.body); err != nil {
			return fmt.Errorf("replay fill: %w", err)
		}
	}

	var callMean time.Duration
	r := lr.loop("server.decide", 64, func(i int) error {
		return dec.serve(w, rqDecide, in.decideBodies[i%len(in.decideBodies)])
	})
	callMean = r.perCall
	lr.put("server.decide_us", "us", us(r.perCall))
	lr.put("server.decide_allocs", "count", r.allocs)
	r = lr.loop("server.batch", 4, func(i int) error {
		return fl.serve(w, rqBatch, decides[i%len(decides)].body)
	})
	lr.put("server.batch_us", "us", us(r.perCall))
	lr.put("server.batch_allocs", "count", r.allocs)
	r = lr.loop("server.observe_batch", 4, func(i int) error {
		return fl.serve(w, rqObserve, observes[i%len(observes)].body)
	})
	lr.put("server.observe_batch_us", "us", us(r.perCall))
	// A settle is the observe batch quoting the ids a ledger decide
	// batch just minted; only the settling batch is timed.
	var settleAttempts int64
	r = lr.each("server.settle", 16, layerBudget, func(i int) (time.Time, time.Time, error) {
		op := settles[i%len(settles)]
		settleAttempts += int64(len(op.stops))
		if op.orphan >= 0 {
			settleAttempts--
		}
		if err := fl.serve(w, rqBatch, op.body); err != nil {
			return time.Time{}, time.Time{}, err
		}
		ids, bad := decideItems(reply{status: w.status, body: bytes.Clone(w.buf.Bytes())}, nil, op.decisions)
		if bad > 0 {
			return time.Time{}, time.Time{}, fmt.Errorf("settle decide: %d item errors", bad)
		}
		body := settleBody(op, 0, ids)
		t0 := time.Now()
		err := fl.serve(w, rqObserve, body)
		return t0, time.Now(), err
	})
	lr.put("server.settle_us", "us", us(r.perCall))

	// Boot: ReadAreaStates + New on the workload's areas file.
	data := in.areasJSON
	if data == nil {
		if data, err = areasJSON(in.areas); err != nil {
			return err
		}
	}
	r = lr.each("server.boot", 3, 0, func(int) (time.Time, time.Time, error) {
		t0 := time.Now()
		areas, err := server.ReadAreaStates(bytes.NewReader(data))
		if err == nil {
			_, err = server.New(server.Config{Areas: areas, Retune: retuneConfig})
		}
		return t0, time.Now(), err
	})
	lr.put("server.boot_s", "s", sec(r.perCall))

	decSnap, err := dec.scrape()
	if err != nil {
		return err
	}
	flSnap, err := fl.scrape()
	if err != nil {
		return err
	}
	if err := dec.stop(); err != nil {
		return fmt.Errorf("replay server drain: %w", err)
	}
	if fl != dec {
		if err := fl.stop(); err != nil {
			return fmt.Errorf("replay server drain: %w", err)
		}
	}

	// Audit replay: the served fleet_100k log, or the replay server's.
	if in.auditRecords > 0 {
		n := int64(in.auditRecords)
		lr.e.spans.add("server.audit_verify", 0, "", time.Now().Add(-in.auditVerify), time.Now(), n, 0, 0)
		lr.rep.rows = append(lr.rep.rows, layerRow{name: "server.audit_verify", calls: n, busy: in.auditVerify, perCall: in.auditVerify / time.Duration(n)})
		lr.put("server.audit_verify_us", "us", us(in.auditVerify)/float64(n))
	} else {
		var recs int
		r = lr.each("server.audit_verify", 1, 0, func(int) (time.Time, time.Time, error) {
			t0 := time.Now()
			ar, err := server.VerifyAudit(bytes.NewReader(fl.audit.buf.Bytes()))
			if err == nil && !ar.OK() {
				err = fmt.Errorf("replay audit log does not verify: %s", ar)
			}
			recs = ar.Records
			return t0, time.Now(), err
		})
		lr.put("server.audit_verify_us", "us", us(r.perCall)/float64(max(recs, 1)))
	}

	// Scrape-derived ratios.
	snap, meanMS := decSnap, ms(callMean)
	if in.served != nil {
		snap, meanMS = in.served.scrape, in.clientMeanMS
	}
	handler := handlerMS(snap)
	lr.put("server.handler_ms", "ms", handler)
	lr.put("server.wire_ms", "ms", meanMS-handler)
	lr.put("server.shed_share", "ratio", float64(snap.SumCounters("http_overload_total"))/
		float64(max(snap.SumCounters("http_requests_total"), 1)))
	// The cache hit ratio comes from the server that sees the miss mix:
	// the served one, or the replay fleet server for paper_all.
	hitSnap := flSnap
	if in.served != nil {
		hitSnap = in.served.scrape
	}
	hits := hitSnap.SumCounters("decide_cache_hits_total")
	lr.put("cache.hit_ratio", "ratio", float64(hits)/float64(max(hits+hitSnap.SumCounters("decide_cache_misses_total"), 1)))
	if in.settleAttempts > 0 {
		lr.put("adaptive.retune_ratio", "ratio", float64(in.retunes)/float64(max(in.alarms, 1)))
		lr.put("ledger.settle_ratio", "ratio", float64(in.settled)/float64(in.settleAttempts))
		lr.put("obs.drop_share", "ratio", in.dropShare)
	} else {
		lr.put("adaptive.retune_ratio", "ratio", float64(flSnap.SumCounters("retune_total"))/
			float64(max(flSnap.SumCounters("retune_alarms_total"), 1)))
		lr.put("ledger.settle_ratio", "ratio", float64(flSnap.SumCounters("ledger_settled_total"))/
			float64(max(settleAttempts, 1)))
		dropped := gauge(flSnap, "trace_dropped_records") + gauge(flSnap, "audit_dropped_records")
		lr.put("obs.drop_share", "ratio", dropped/float64(max(fl.trace.lines.Load()+fl.audit.lines.Load(), 1)))
	}
	return nil
}

// areaSeq returns the areas the workload's decides name, in order:
// the single decides, then the decide batches' items.
func areaSeq(in *layerInputs, decides []fleetOp) []string {
	var out []string
	for _, b := range in.decideBodies {
		var r server.DecideRequest
		if json.Unmarshal(b, &r) == nil {
			out = append(out, r.Area)
		}
	}
	for _, op := range decides {
		var br server.BatchDecideRequest
		if json.Unmarshal(op.body, &br) == nil {
			for _, r := range br.Requests {
				out = append(out, r.Area)
			}
		}
	}
	return out
}

// measureCore covers cache, policy, predict, adaptive, ledger, obs and
// parallel.
func measureCore(lr *layerRun, in *layerInputs, seq []string) error {
	byID := make(map[string]server.AreaState, len(in.areas))
	for _, a := range in.areas {
		byID[a.ID] = a
	}
	c, err := server.NewShardedCache(in.areas, nil, 0)
	if err != nil {
		return err
	}
	r := lr.loop("cache.get", 1024, func(i int) error {
		if _, ok := c.Get(seq[i%len(seq)]); !ok {
			return fmt.Errorf("cache miss")
		}
		return nil
	})
	lr.put("cache.get_ns", "ns", ns(r.perCall))
	hot := in.gen.hot
	r = lr.loop("cache.update", 16, func(i int) error {
		a := byID[hot[i%len(hot)]]
		q := a.Q
		if (i/len(hot))%2 == 0 {
			q *= 0.9
		}
		_, err := c.Update(a.ID, 0, skirental.Stats{MuBMinus: a.Mu, QBPlus: q})
		return err
	})
	lr.put("cache.update_us", "us", us(r.perCall))

	// Policy engines over the areas the decides name.
	stats := make([]policy.Stats, 0, 1024)
	for i := 0; i < len(seq) && len(stats) < 1024; i++ {
		stats = append(stats, byID[seq[i]].PolicyStats(0))
	}
	for _, eng := range []string{"constrained", "multislope3"} {
		e, err := policy.Lookup(eng)
		if err != nil {
			return err
		}
		r = lr.loop("policy.prepare_"+eng, 8, func(i int) error {
			_, err := e.Prepare(stats[i%len(stats)])
			return err
		})
		lr.put("policy.prepare_"+eng+"_us", "us", us(r.perCall))
	}
	cons, _ := policy.Lookup("constrained")
	soft, _ := policy.Lookup("softml")
	strats := make([]policy.Strategy, 0, 64)
	advised := make([]policy.Advised, 0, 64)
	for _, s := range stats[:min(64, len(stats))] {
		st, err := cons.Prepare(s)
		if err != nil {
			return err
		}
		strats = append(strats, st)
		sm, err := soft.Prepare(s)
		if err != nil {
			return err
		}
		adv, ok := sm.(policy.Advised)
		if !ok {
			return fmt.Errorf("softml strategy is not policy.Advised")
		}
		advised = append(advised, adv)
	}
	seed := lr.e.seed
	r = lr.loop("policy.decide", 1024, func(i int) error {
		strats[i%len(strats)].Decide(parallel.RNG(seed, uint64(i)))
		return nil
	})
	lr.put("policy.decide_ns", "ns", ns(r.perCall))
	r = lr.loop("predict.advised", 1024, func(i int) error {
		advised[i%len(advised)].DecideAdvised(parallel.RNG(seed, uint64(i)), predict.New(float64(1+i%120)))
		return nil
	})
	lr.put("predict.advised_ns", "ns", ns(r.perCall))

	// Adaptive: the workload's observed stops through one tracker.
	var stops []float64
	for _, ys := range in.gen.history {
		stops = append(stops, ys...)
	}
	if in.fleet != nil {
		stops = in.fleet.AllStops("Chicago")
	}
	tr, err := adaptive.NewTracker(adaptive.StreamConfig{B: paperB, Forgetting: retuneConfig.Forgetting})
	if err != nil {
		return err
	}
	r = lr.loop("adaptive.observe", 1024, func(i int) error {
		_, err := tr.Observe(stops[i%len(stops)])
		return err
	})
	lr.put("adaptive.observe_ns", "ns", ns(r.perCall))

	// Ledger: issue a chunk, then settle it.
	led := ledger.New(ledger.Config{})
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-d%06d", i)
	}
	issueParent := lr.e.spans.open("layer.ledger.issue", time.Now())
	settleParent := lr.e.spans.open("layer.ledger.settle", time.Now())
	deadline := time.Now().Add(layerBudget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		now := time.Now().UnixMilli()
		var errs int64
		t0 := time.Now()
		for i, id := range ids {
			if _, err := led.Issue(ledger.Pending{ID: id, Area: seq[i%len(seq)], Engine: "constrained@v1",
				B: paperB, ThresholdSec: float64(i % 40), Bound: 1.6, IssuedUnixMS: now}); err != nil {
				errs++
			}
		}
		t1 := time.Now()
		lr.e.spans.add("call.ledger.issue", issueParent, "", t0, t1, int64(len(ids)), 0, errs)
		errs = 0
		for i, id := range ids {
			if _, err := led.Settle(id, float64(i%90), now); err != nil {
				errs++
			}
		}
		lr.e.spans.add("call.ledger.settle", settleParent, "", t1, time.Now(), int64(len(ids)), 0, errs)
		// Fresh ids per round: a settled id stays remembered.
		for i := range ids {
			ids[i] = fmt.Sprintf("bench-d%06d-%d", i, round+1)
		}
	}
	lr.e.spans.close(issueParent, time.Now())
	lr.e.spans.close(settleParent, time.Now())
	lr.put("ledger.issue_ns", "ns", ns(lr.row("ledger.issue", issueParent).perCall))
	lr.put("ledger.settle_ns", "ns", ns(lr.row("ledger.settle", settleParent).perCall))

	// obs: the decide path's metric calls.
	rec := obs.NewRecorder("perfbench", nil, nil)
	choices := []string{"DET", "TOI", "b-DET", "N-Rand"}
	r = lr.loop("obs.counter", 1024, func(i int) error {
		rec.Add(obs.L("decide_total", "choice", choices[i%len(choices)]), 1)
		return nil
	})
	lr.put("obs.counter_ns", "ns", ns(r.perCall))
	r = lr.loop("obs.hist", 1024, func(i int) error {
		rec.Observe("decide_threshold_sec", float64(i%40))
		return nil
	})
	lr.put("obs.hist_ns", "ns", ns(r.perCall))
	jw := obs.NewJSONLWriter(io.Discard, 8192)
	a := in.areas[0]
	r = lr.loop("obs.jsonl_write", 1024, func(i int) error {
		jw.Write(server.AuditRecord{TSUnixMS: int64(i), RequestID: "bench-0000001", VehicleID: "veh-0001",
			Area: a.ID, StatsVersion: 1, B: a.B, Mu: a.Mu, Q: a.Q, Seed: seed, Stream: uint64(i),
			Choice: "N-Rand", ThresholdSec: float64(i % 28)})
		if i%1024 == 1023 {
			return jw.Flush()
		}
		return nil
	})
	if err := jw.Close(); err != nil {
		return err
	}
	if jw.Dropped() > 0 {
		lr.rep.notes = append(lr.rep.notes, fmt.Sprintf("obs.jsonl_write: %d records dropped by the bounded queue", jw.Dropped()))
	}
	lr.put("obs.jsonl_write_ns", "ns", ns(r.perCall))

	ctx := context.Background()
	r = lr.loop("parallel.map", 64, func(i int) error {
		_, err := parallel.Map(ctx, "perfbench", batchItems, 0, func(_ context.Context, j int) (int, error) {
			return i + j, nil
		})
		return err
	})
	lr.put("parallel.map_us", "us", us(r.perCall))
	return nil
}

// measureReproduction covers fleet, experiments, dist, lp and
// skirental. paper_all passes its own fleet generations and traced
// passes; the serving workloads generate and run one pass here.
func measureReproduction(lr *layerRun, in *layerInputs) error {
	o := experiments.Options{Seed: lr.e.seed, Workers: 1}
	if in.fleet == nil {
		t0 := time.Now()
		f, err := o.BuildFleet()
		t1 := time.Now()
		if err != nil {
			return err
		}
		lr.e.spans.add("fleet.generate", 0, "", t0, t1, 1, 0, 0)
		in.fleet, in.setups = f, []float64{t1.Sub(t0).Seconds()}
		parent := lr.e.spans.open("paper.pass", time.Now())
		p, err := runPaperPass(lr.e, lr.rep, o, f, parent)
		lr.e.spans.close(parent, time.Now())
		if err != nil {
			return err
		}
		in.passes = []paperPass{p}
	}
	lr.put("fleet.generate_s", "s", median(in.setups))
	for _, name := range []string{"ablations", "verify", "multislope", "fig3", "fig4", "fig5", "fig6", "savings"} {
		var ts []float64
		for _, p := range in.passes {
			ts = append(ts, p.drivers[name].Seconds())
		}
		lr.put("experiments."+name+"_s", "s", median(ts))
	}

	areas := fleet.DefaultAreas()
	stats := make(map[string]skirental.Stats, len(areas))
	r := lr.loop("dist.stats_of", 1, func(i int) error {
		a := areas[i%len(areas)]
		stats[a.Name] = skirental.StatsOf(a.StopLengthDistribution(), paperB)
		return nil
	})
	lr.put("dist.stats_of_us", "us", us(r.perCall))
	r = lr.loop("lp.minimax", 1, func(i int) error {
		_, err := analysis.MinimaxLP(paperB, stats[areas[i%len(areas)].Name], 64)
		return err
	})
	lr.put("lp.minimax_ms", "ms", ms(r.perCall))
	pols := make(map[string]skirental.Policy, len(stats))
	for name, s := range stats {
		p, err := skirental.NewConstrained(paperB, s)
		if err != nil {
			return err
		}
		pols[strings.ToLower(name)] = p
	}
	vs := in.fleet.Vehicles
	r = lr.loop("skirental.trace_cr", 16, func(i int) error {
		v := vs[i%len(vs)]
		if cr := skirental.TraceCR(pols[strings.ToLower(v.Area)], v.Stops); !(cr >= 1-1e-12) {
			return fmt.Errorf("vehicle %s: CR %v < 1", v.ID, cr)
		}
		return nil
	})
	lr.put("skirental.trace_cr_us", "us", us(r.perCall))
	return nil
}
