package main

// hot_decide: one POST /v1/decide per request for the three paper
// areas at B = 28 s, default engine, no ledger, sinks off. The cache
// hit is a few hundred ns inside the per-request wrapper, so this
// workload shows the wrapper: middleware, request-id mint, JSON codec
// and metric labels.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"idlereduce/internal/server"
)

const (
	// hotBodies is the number of distinct request bodies per connection;
	// the loop cycles through them.
	hotBodies = 4096
	// hotSampleEvery selects the replies checked byte for byte: every
	// body index divisible by it, on its first send.
	hotSampleEvery = 32
	// probeCount fixed decides on the paper areas, generated from
	// paperDefaultSeed whatever --seed is, are sent before the warm-up
	// clock starts (both serving workloads serve the paper areas; see
	// probeBodies).
	probeCount = 256
	// probeDigest is the sha256 of the probe replies, in send order,
	// recorded from a known-good build: a change that gets decisions
	// wrong the same way in the child and in-process fails here.
	probeDigest = "d85daa1e7758985a7e0cb775e0c2c1532e42d5bc9703084de9db86355041da33"
)

func runHotDecide(e *env) (*report, error) {
	areas, err := paperAreaStates(paperB)
	if err != nil {
		return nil, err
	}
	bodies := make([][][]byte, conns)
	samples := make([]map[int][]byte, conns)
	for c := range bodies {
		bodies[c] = hotDecideBodies(e.seed, c, hotBodies, areas)
		samples[c] = map[int][]byte{}
	}
	probes, _ := probeBodies(areas)
	var probeSum string
	probeBad := 0
	limit := 5 * time.Millisecond
	plan := servingPlan{
		setups:   9,
		warm:     time.Second,
		limit:    limit,
		refGenUS: 30,
		prewarm: func(conn int, k *loadConn, t *tally) {
			if conn == 0 {
				probeSum, probeBad = sendProbes(k, probes, t, limit)
			}
		},
		worker: func(conn int, k *loadConn, w window, t []tally) {
			bs := bodies[conn]
			for i := 0; ; i++ {
				sl := w.slot(time.Now())
				if sl < 0 {
					return
				}
				j := i % len(bs)
				t0 := time.Now()
				r, err := k.do(http.MethodPost, "/v1/decide", bs[j])
				t1 := time.Now()
				t[sl].record(t1.Sub(t0), r, err, 0, 1, limit)
				if i < len(bs) && j%hotSampleEvery == 0 && err == nil {
					samples[conn][j] = r.body
				}
				if w.phase(sl) == 2 {
					e.spans.add("client.decide", 0, r.reqID, t0, t1, 1, 0, 0)
				}
			}
		},
	}
	run, err := runServing(e, plan)
	if err != nil {
		return nil, err
	}
	rep := &report{attempted: run.phases[1].requests + run.phases[2].requests,
		failed: run.phases[1].failed() + run.phases[2].failed()}

	rep.checkProbes(probeSum, probeBad)
	// Check: sampled replies equal an in-process server's bytes.
	ref, err := server.New(server.Config{Areas: areas, Retune: retuneConfig})
	if err != nil {
		return nil, err
	}
	h := ref.Handler()
	w := newReplyRecorder()
	rq := newReusableRequest(http.MethodPost, "/v1/decide")
	checked, mismatched := 0, 0
	for c := range samples {
		for j, got := range samples[c] {
			w.reset()
			h.ServeHTTP(w, rq.with(bodies[c][j]))
			checked++
			if w.status != http.StatusOK || !bytes.Equal(w.buf.Bytes(), got) {
				mismatched++
				if mismatched <= 3 {
					rep.fail("reply for body %d/%d differs from in-process server: got %q want %q", c, j, got, w.buf.Bytes())
				}
			}
		}
	}
	if checked == 0 {
		rep.fail("no reply sampled for the byte check")
	}
	if mismatched > 0 {
		rep.fail("%d of %d sampled replies differ from the in-process server", mismatched, checked)
	}
	// Every request is one decision; when none failed, the server's
	// count must match exactly.
	var sent, failed int64
	for p := range run.phases {
		sent += run.phases[p].requests
		failed += run.phases[p].failed()
	}
	if decisions := run.scrape.SumCounters("decide_total"); decisions > sent || (failed == 0 && decisions != sent) {
		rep.fail("server counted %d decisions for %d requests sent (%d failed)", decisions, sent, failed)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("byte check: %d sampled replies identical to in-process server.New", checked-mismatched))
	rep.notes = append(rep.notes, failureLines("warm-up", &run.phases[0])...)
	rep.notes = append(rep.notes, failureLines("timed", &run.phases[1])...)
	rep.notes = append(rep.notes, run.windowLines()...)
	rep.e2e = run.e2e(1)
	if e.traced {
		rep.notes = append(rep.notes, failureLines("timed, traced half", &run.phases[2])...)
		rep.tracedE2E = run.e2e(2)
		in := &layerInputs{
			areas:        areas,
			decideBodies: bodies[0],
			served:       run,
			clientMeanMS: meanAll(run) / 1e6,
		}
		if err := measureLayers(e, rep, in); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// probeVariants are appended in turn to the probe decides: the cached
// default (DET on every paper area), the cached multislope3, and
// custom-B and engine requests whose strategies randomize on chicago
// (N-Rand, MS:TOI+N-Rand, SoftML[N-Rand]), so the digest covers the
// threshold draw as well as the strategy choice. Those with a custom B
// are cache misses.
var probeVariants = []struct {
	suffix string
	miss   bool
}{
	{``, false},
	{`,"policy":"multislope3"`, false},
	{`,"b":100`, true},
	{`,"b":47,"policy":"multislope3"`, true},
	{`,"b":100,"policy":"softml","prediction":{"predicted_stop_s":20}`, true},
}

// probeBodies returns the fixed probe decides on the paper areas (the
// first three of areas) and how many of them are cache misses.
func probeBodies(areas []server.AreaState) (bodies [][]byte, misses int) {
	for i, b := range hotDecideBodies(paperDefaultSeed, 0, probeCount, areas[:3]) {
		v := probeVariants[i%len(probeVariants)]
		bodies = append(bodies, append(b[:len(b)-1:len(b)-1], v.suffix+"}"...))
		if v.miss {
			misses++
		}
	}
	return bodies, misses
}

// sendProbes sends the probe decides over k, booking them in t. It
// returns the sha256 of the replies in send order and the number of
// probes that did not return 200.
func sendProbes(k *loadConn, probes [][]byte, t *tally, limit time.Duration) (digest string, bad int) {
	h := sha256.New()
	for _, b := range probes {
		t0 := time.Now()
		r, err := k.do(http.MethodPost, "/v1/decide", b)
		t.record(time.Since(t0), r, err, 0, 1, limit)
		if err != nil || r.status != http.StatusOK {
			bad++
		}
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil)), bad
}

// checkProbes fails the report unless every probe succeeded and their
// replies match the recorded digest.
func (r *report) checkProbes(digest string, bad int) {
	if bad > 0 || digest != probeDigest {
		r.fail("probe replies: %d of %d failed; digest %s differs from the recorded %s", bad, probeCount, digest, probeDigest)
		return
	}
	r.notes = append(r.notes, fmt.Sprintf("check probe: %d fixed replies match the recorded digest", probeCount))
}

// meanAll is the mean client latency in ns over every phase of a run.
func meanAll(run *servedRun) float64 {
	var sum float64
	var n int
	for p := range run.phases {
		sum += meanNS(run.phases[p].lat) * float64(len(run.phases[p].lat))
		n += len(run.phases[p].lat)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
