package main

// fleet_100k: 100 000 areas booted from an areas file, 16-item batches
// of decides, observations and ledger settles, with the trace and audit
// sinks on. It is the only workload that writes (observe -> retune ->
// Cache.Update, and settles), and its strategy working set is far
// larger than the CPU caches.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/server"
)

// batchDecideReply and batchObserveReply are the parts of the batch
// replies the client checks.
type batchDecideReply struct {
	Results []struct {
		Decision *struct {
			DecisionID string `json:"decision_id"`
		} `json:"decision"`
		Error *server.APIError `json:"error"`
	} `json:"results"`
}

type batchObserveReply struct {
	Results []struct {
		Result *struct {
			Settled bool `json:"settled"`
		} `json:"result"`
		Error *server.APIError `json:"error"`
	} `json:"results"`
}

// fleetSent is what one connection sent over the whole run, by
// construction of its schedule: the exact counts the server must
// report.
type fleetSent struct {
	decisions, customB, observations, settles, orphans int64
	requests                                           [4]int64 // by opKind
}

// decideItems checks a decide batch reply: it returns the decision ids
// and the number of item errors (all items are expected to succeed).
func decideItems(r reply, err error, want int) (ids []string, bad int) {
	if err != nil || r.status != http.StatusOK {
		return nil, 0
	}
	var rep batchDecideReply
	if json.Unmarshal(r.body, &rep) != nil || len(rep.Results) != want {
		return nil, want
	}
	ids = make([]string, len(rep.Results))
	for i, it := range rep.Results {
		if it.Error != nil || it.Decision == nil {
			bad++
			continue
		}
		ids[i] = it.Decision.DecisionID
	}
	return ids, bad
}

// observeItems checks an observe batch reply. orphan is the slot that
// must fail with 404 unknown_decision (-1: none); settling says every
// other slot must report settled. It returns unexpected item errors,
// settle 404/409s beyond the planted orphan, and the accepted count.
func observeItems(r reply, err error, want, orphan int, settling bool) (bad, settleBad, ok int) {
	if err != nil || r.status != http.StatusOK {
		return 0, 0, 0
	}
	var rep batchObserveReply
	if json.Unmarshal(r.body, &rep) != nil || len(rep.Results) != want {
		return want, 0, 0
	}
	for i, it := range rep.Results {
		switch {
		case i == orphan:
			if it.Error == nil || it.Error.Code != "unknown_decision" {
				bad++
			}
		case it.Error != nil:
			if it.Error.Status == http.StatusNotFound || it.Error.Status == http.StatusConflict {
				settleBad++
			} else {
				bad++
			}
		case it.Result == nil || it.Result.Settled != settling:
			bad++
		default:
			ok++
		}
	}
	return bad, settleBad, ok
}

func runFleet100k(e *env) (*report, error) {
	// The first three areas are the paper areas, so the fixed probe
	// decides have known-good replies here too.
	areas := genFleetAreas(e.seed, fleetAreas)
	paper, err := paperAreaStates(paperB)
	if err != nil {
		return nil, err
	}
	copy(areas, paper)
	data, err := areasJSON(areas)
	if err != nil {
		return nil, err
	}
	areasFile := e.workPath("areas.json")
	if err := os.WriteFile(areasFile, data, 0o644); err != nil {
		return nil, err
	}
	hot := pickHot(e.seed, areas, hotAreas)
	gens := make([]*fleetGen, conns)
	sent := make([]fleetSent, conns)
	for c := range gens {
		gens[c] = newFleetGen(e.seed, c, areas, hot)
	}
	auditLog, traceLog := e.workPath("audit.jsonl"), e.workPath("trace.jsonl")
	limit := 50 * time.Millisecond
	plan := servingPlan{
		spec:     childSpec{AreasFile: areasFile, AuditLog: auditLog, TraceLog: traceLog},
		setups:   9,
		warm:     time.Second,
		limit:    limit,
		refGenUS: 150,
	}
	// step sends one scheduled operation and books it in t.
	step := func(conn int, k *loadConn, op fleetOp, ph int, t *tally) {
		s := &sent[conn]
		s.requests[op.kind]++
		span := func(route string, r reply, t0, t1 time.Time) {
			if ph == 2 {
				e.spans.add("client."+route, 0, r.reqID, t0, t1, 1, 0, 0)
			}
		}
		switch op.kind {
		case opFill, opDecide:
			s.decisions += int64(op.decisions)
			s.customB += int64(op.customB)
			t0 := time.Now()
			r, err := k.do(http.MethodPost, "/v1/decide/batch", op.body)
			t1 := time.Now()
			_, bad := decideItems(r, err, op.decisions)
			t.itemErr += int64(bad)
			t.record(t1.Sub(t0), r, err, bad, op.decisions-bad, limit)
			span("batch", r, t0, t1)
		case opObserve:
			s.observations += int64(len(op.stops))
			t0 := time.Now()
			r, err := k.do(http.MethodPost, "/v1/observe/batch", op.body)
			t1 := time.Now()
			bad, settleBad, ok := observeItems(r, err, len(op.stops), -1, false)
			t.itemErr += int64(bad)
			t.settleErr += int64(settleBad)
			t.record(t1.Sub(t0), r, err, bad+settleBad, ok, limit)
			span("observe_batch", r, t0, t1)
		case opSettle:
			s.decisions += int64(op.decisions)
			n := int64(len(op.stops))
			if op.orphan >= 0 {
				n--
				s.orphans++
			}
			s.observations += n
			s.settles += n
			t0 := time.Now()
			r, err := k.do(http.MethodPost, "/v1/decide/batch", op.body)
			t1 := time.Now()
			ids, bad := decideItems(r, err, op.decisions)
			t.itemErr += int64(bad)
			t.record(t1.Sub(t0), r, err, bad, op.decisions-bad, limit)
			span("batch", r, t0, t1)
			if ids == nil || bad > 0 {
				return
			}
			t0 = time.Now()
			r, err = k.do(http.MethodPost, "/v1/observe/batch", settleBody(op, conn, ids))
			t1 = time.Now()
			bad, settleBad, ok := observeItems(r, err, len(op.stops), op.orphan, true)
			t.itemErr += int64(bad)
			t.settleErr += int64(settleBad)
			t.record(t1.Sub(t0), r, err, bad+settleBad, ok, limit)
			span("settle", r, t0, t1)
		}
	}
	probes, probeMisses := probeBodies(areas)
	var probeSum string
	probeBad := 0
	plan.prewarm = func(conn int, k *loadConn, t *tally) {
		if conn == 0 {
			probeSum, probeBad = sendProbes(k, probes, t, limit)
			sent[0].decisions += int64(len(probes))
			sent[0].customB += int64(probeMisses)
		}
		for g := gens[conn]; len(g.fill) > 0; {
			step(conn, k, g.next(), 0, t)
		}
	}
	plan.worker = func(conn int, k *loadConn, w window, t []tally) {
		for {
			sl := w.slot(time.Now())
			if sl < 0 {
				return
			}
			step(conn, k, gens[conn].next(), w.phase(sl), &t[sl])
		}
	}
	run, err := runServing(e, plan)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: run.phases[1].requests + run.phases[2].requests,
		failed: run.phases[1].failed() + run.phases[2].failed()}

	rep.checkProbes(probeSum, probeBad)

	// Exact counts, by construction of the schedule.
	var want fleetSent
	history := map[string][]float64{}
	for c := range sent {
		want.decisions += sent[c].decisions
		want.customB += sent[c].customB
		want.observations += sent[c].observations
		want.settles += sent[c].settles
		want.orphans += sent[c].orphans
		for k := range want.requests {
			want.requests[k] += sent[c].requests[k]
		}
		for a, ys := range gens[c].history {
			history[a] = ys
		}
	}
	alarms, retunes, err := modelRetunes(history, areas)
	if err != nil {
		return nil, err
	}
	sc := run.scrape
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"decisions (decide_total)", sc.SumCounters("decide_total"), want.decisions},
		{"observations (observe_total)", sc.SumCounters("observe_total"), want.observations},
		{"settles (ledger_settled_total)", sc.SumCounters("ledger_settled_total"), want.settles},
		{"planted orphans (ledger_orphaned_total)", sc.SumCounters("ledger_orphaned_total"), want.orphans},
		{"cache hits (decide_cache_hits_total)", sc.SumCounters("decide_cache_hits_total"), want.decisions - want.customB},
		{"cache misses (decide_cache_misses_total)", sc.SumCounters("decide_cache_misses_total"), want.customB},
		{"drift alarms (retune_alarms_total)", sc.SumCounters("retune_alarms_total"), int64(alarms)},
		{"retunes (retune_total)", sc.SumCounters("retune_total"), int64(retunes)},
		{"trace records dropped", int64(gauge(sc, "trace_dropped_records")), 0},
		{"audit records dropped", int64(gauge(sc, "audit_dropped_records")), 0},
	} {
		if c.got != c.want {
			rep.fail("%s: server %d, schedule %d", c.name, c.got, c.want)
		} else {
			rep.notes = append(rep.notes, fmt.Sprintf("check %s = %d", c.name, c.got))
		}
	}

	// The drained audit log must replay bit for bit and hold exactly
	// one record per decision, observation and settle.
	f, err := os.Open(auditLog)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ar, err := server.VerifyAudit(bufio.NewReaderSize(f, 1<<20))
	verify := time.Since(t0)
	f.Close()
	if err != nil {
		return nil, err
	}
	wantRecords := want.decisions + want.observations + want.settles
	if !ar.OK() || ar.TruncatedTail || int64(ar.Records) != wantRecords {
		rep.fail("audit verify: %d records (want %d), %d matched, %d mismatched, %d corrupt, truncated tail %v %v",
			ar.Records, wantRecords, ar.Matched, ar.Mismatched, ar.Corrupt, ar.TruncatedTail, ar.Details)
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("check audit verify: %d records replayed bit for bit", ar.Records))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("requests by kind: fill %d, decide %d, observe %d, settle pairs %d",
		want.requests[opFill], want.requests[opDecide], want.requests[opObserve], want.requests[opSettle]))
	rep.notes = append(rep.notes, failureLines("warm-up", &run.phases[0])...)
	rep.notes = append(rep.notes, failureLines("timed", &run.phases[1])...)
	rep.notes = append(rep.notes, run.windowLines()...)
	rep.e2e = run.e2e(1)
	if e.traced {
		rep.notes = append(rep.notes, failureLines("timed, traced half", &run.phases[2])...)
		rep.tracedE2E = run.e2e(2)
		// Inputs for the in-process replay: a fresh schedule of the
		// same seed, so the replay sees the same request mix.
		g := newFleetGen(e.seed, 0, areas, hot)
		in := &layerInputs{
			areas:        areas,
			areasJSON:    data,
			decideBodies: hotDecideBodies(e.seed, 0, hotBodies, areas),
			sinks:        true,
			served:       run,
			clientMeanMS: meanAll(run) / 1e6,
			gen:          g,
			auditVerify:  verify,
			auditRecords: ar.Records,
			// One span per request served before the scrape and one per
			// batch item, plus the audit records.
			dropShare: (gauge(sc, "trace_dropped_records") + gauge(sc, "audit_dropped_records")) /
				float64(max(sc.SumCounters("http_requests_total")+sc.SumCounters("batch_decisions_total")+int64(ar.Records), 1)),
			alarms: sc.SumCounters("retune_alarms_total"), retunes: sc.SumCounters("retune_total"),
			settleAttempts: want.settles, settled: sc.SumCounters("ledger_settled_total"),
		}
		if err := measureLayers(e, rep, in); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// modelRetunes replays each hot area's observation stream, in send
// order, through an adaptive.Tracker configured like the server's, and
// counts the drift alarms and the warm alarms that re-tune.
func modelRetunes(history map[string][]float64, areas []server.AreaState) (alarms, retunes int, err error) {
	byID := make(map[string]server.AreaState, len(history))
	for _, a := range areas {
		if _, ok := history[a.ID]; ok {
			byID[a.ID] = a
		}
	}
	for id, ys := range history {
		tr, err := adaptive.NewTracker(adaptive.StreamConfig{
			B:               byID[id].B,
			Forgetting:      retuneConfig.Forgetting,
			MinObservations: retuneConfig.MinObservations,
			Drift: adaptive.DriftConfig{
				Threshold: retuneConfig.DriftThreshold,
				Slack:     retuneConfig.DriftSlack,
				Warmup:    retuneConfig.DriftWarmup,
			},
		})
		if err != nil {
			return 0, 0, err
		}
		for _, y := range ys {
			up, err := tr.Observe(y)
			if err != nil {
				return 0, 0, err
			}
			if up.Alarm {
				alarms++
				if up.Warm {
					retunes++
				}
			}
		}
	}
	return alarms, retunes, nil
}
