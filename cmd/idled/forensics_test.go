package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"idlereduce/internal/obs"
	"idlereduce/internal/server"
)

// startServe runs `idled serve` with extra flags on an ephemeral port
// and returns the base URL plus a clean-shutdown func.
func startServe(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	go func() {
		err := run(ctx, args, pw)
		pw.Close()
		done <- err
	}()
	// The banner is the first line carrying the bound address; sink
	// lines ("idled: audit log -> ...") may precede it.
	sc := bufio.NewScanner(pr)
	var base string
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "http://"); i >= 0 {
			base = strings.TrimSpace(sc.Text()[i:])
			break
		}
	}
	if base == "" {
		cancel()
		t.Fatalf("no serve banner; err=%v", <-done)
	}
	go io.Copy(io.Discard, pr)
	return base, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve drain: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not exit after cancel")
		}
	}
}

// TestServeAuditRoundTrip is the full acceptance loop: serve with the
// forensics logs on, drive it with the loadtest harness, check the
// live history window fills, drain, then replay the audit log — every
// recorded decision must reproduce bit-for-bit.
func TestServeAuditRoundTrip(t *testing.T) {
	dir := t.TempDir()
	auditPath := filepath.Join(dir, "audit.jsonl")
	tracePath := filepath.Join(dir, "trace.jsonl")
	base, shutdown := startServe(t,
		"-audit-log", auditPath,
		"-trace-log", tracePath,
		"-history-interval", "20ms",
		"-history-window", "32",
	)

	var lt bytes.Buffer
	if err := run(context.Background(), []string{
		"loadtest", "-target", base, "-clients", "4", "-requests", "5", "-batch", "4",
	}, &lt); err != nil {
		t.Fatalf("loadtest: %v\n%s", err, lt.String())
	}

	// The sampler must retain the traffic it just served; give it a
	// few ticks to take its first sample.
	var hist obs.History
	deadline := time.Now().Add(5 * time.Second)
	for hist.Samples == 0 {
		resp, err := http.Get(base + "/v1/history")
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeBody(resp, &hist); err != nil {
			t.Fatal(err)
		}
		if hist.Samples > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("history still empty after a load run")
		}
		time.Sleep(20 * time.Millisecond)
	}

	shutdown()

	f, err := os.Open(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := server.VerifyAudit(f)
	if err != nil {
		t.Fatal(err)
	}
	// 4 clients x 5 requests x batch 4 = 80 decisions.
	if !rep.OK() || rep.Records != 80 || rep.Matched != 80 {
		t.Errorf("verify report %s, want 80/80 matched", rep.String())
	}
	if trace, err := os.ReadFile(tracePath); err != nil || len(trace) == 0 {
		t.Errorf("trace log empty (err=%v)", err)
	}
}

func decodeBody(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestLoadtestOutSnapshot checks -out writes the harness registry in
// the obs snapshot schema.
func TestLoadtestOutSnapshot(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	if err := run(context.Background(), []string{
		"loadtest", "-clients", "2", "-requests", "2", "-batch", "2", "-out", outPath,
	}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.CounterValue("loadtest_requests_total"); !ok || v != 4 {
		t.Errorf("snapshot loadtest_requests_total = %d/%v, want 4", v, ok)
	}
	if _, ok := snap.HistogramValue("loadtest_request_ms"); !ok {
		t.Error("snapshot missing the latency histogram")
	}
}
