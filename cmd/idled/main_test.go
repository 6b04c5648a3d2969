package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"idlereduce/internal/server"
)

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no command", nil, "usage:"},
		{"unknown command", []string{"bogus"}, "unknown command"},
		{"serve positional", []string{"serve", "extra"}, "unexpected arguments"},
		{"serve bad b", []string{"serve", "-b", "-3"}, "must be positive"},
		{"serve missing areas file", []string{"serve", "-areas", "/does/not/exist.json"}, "no such file"},
		{"loadtest positional", []string{"loadtest", "extra"}, "unexpected arguments"},
		{"loadtest bad clients", []string{"loadtest", "-clients", "-1"}, "must all be positive"},
		{"loadtest bad batch", []string{"loadtest", "-batch", "0"}, "must all be positive"},
		{"loadtest bad profile kind", []string{"loadtest", "-profile", "goroutine"}, "want cpu or heap"},
		{"loadtest orphan profile-out", []string{"loadtest", "-profile-out", "x.pprof"}, "requires -profile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) err = %v, want containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestServeRefusesNonFiniteRetune: a re-tune flag at NaN or +Inf fails
// idled serve before it listens; the deadline only bounds a daemon that
// wrongly started.
func TestServeRefusesNonFiniteRetune(t *testing.T) {
	for _, flagValue := range [][]string{
		{"-forgetting", "NaN"}, {"-forgetting", "+Inf"},
		{"-drift-threshold", "NaN"}, {"-drift-threshold", "+Inf"},
	} {
		t.Run(strings.Join(flagValue, "="), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var out bytes.Buffer
			err := run(ctx, append([]string{"serve", "-addr", "127.0.0.1:0"}, flagValue...), &out)
			if err == nil || !strings.Contains(err.Error(), "invalid config") {
				t.Errorf("serve %v: err = %v, want an invalid config refusal", flagValue, err)
			}
			if strings.Contains(out.String(), "serving") {
				t.Errorf("serve %v started serving: %s", flagValue, out.String())
			}
		})
	}
}

func TestAreasTemplateRoundTrips(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"areas-template"}, &out); err != nil {
		t.Fatal(err)
	}
	areas, err := server.ReadAreaStates(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(areas) != 3 {
		t.Fatalf("template areas %d", len(areas))
	}
}

// TestServeLifecycle boots the daemon on an ephemeral port, hits its
// API, then cancels the context like a SIGTERM and expects a clean
// drain.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-max-inflight", "64"}, pw)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("no serve banner; err=%v", <-done)
	}
	banner := sc.Text()
	i := strings.Index(banner, "http://")
	if i < 0 {
		t.Fatalf("banner %q has no address", banner)
	}
	base := strings.TrimSpace(banner[i:])

	resp, err := http.Post(base+"/v1/decide", "application/json",
		strings.NewReader(`{"vehicle_id":"v","area":"chicago","seed":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("decide status %d: %s", resp.StatusCode, body)
	}
	var dec server.DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	if dec.Choice == "" || dec.Seed != 4 {
		t.Errorf("decision %+v", dec)
	}

	cancel()
	go io.Copy(io.Discard, pr) // drain the "bye" line
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after cancel")
	}
}

// TestServeCustomAreasFile boots with a one-area config and checks the
// area is served.
func TestServeCustomAreasFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/areas.json"
	cfg := `[{"id":"testville","b":30,"mu":6,"q":0.2}]`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-areas", path}, pw)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	if !sc.Scan() {
		t.Fatalf("no banner; err=%v", <-done)
	}
	base := sc.Text()[strings.Index(sc.Text(), "http://"):]

	resp, err := http.Get(base + "/v1/areas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list server.AreasResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Areas) != 1 || list.Areas[0].ID != "testville" || list.Areas[0].B != 30 {
		t.Errorf("areas %+v", list.Areas)
	}
	cancel()
	go io.Copy(io.Discard, pr)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestLoadtestInProcess runs the self-contained loadtest mode and
// checks the JSON report adds up.
func TestLoadtestInProcess(t *testing.T) {
	var out bytes.Buffer
	args := []string{"loadtest", "-clients", "4", "-requests", "3", "-batch", "2", "-json"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	// First line is the in-process banner; the report is the JSON tail.
	text := out.String()
	i := strings.Index(text, "{")
	if i < 0 {
		t.Fatalf("no JSON in output:\n%s", text)
	}
	var report server.LoadReport
	if err := json.Unmarshal([]byte(text[i:]), &report); err != nil {
		t.Fatal(err)
	}
	if report.Requests != 12 || report.Decisions != 24 {
		t.Errorf("report %+v, want 12 requests / 24 decisions", report)
	}
	if report.Errors != 0 || report.Overloaded != 0 {
		t.Errorf("report errors %+v", report)
	}
}

// TestServePprofAddr boots the daemon with the profiling plane enabled
// and checks the dedicated listener serves a heap profile while the
// serving port refuses the pprof tree.
func TestServePprofAddr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"}, pw)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	var base, pbase string
	for pbase == "" && sc.Scan() {
		line := sc.Text()
		i := strings.Index(line, "http://")
		if i < 0 {
			continue
		}
		if strings.Contains(line, "pprof") {
			pbase = line[i:]
			pbase = pbase[:strings.Index(pbase, "/debug/")]
		} else {
			base = strings.TrimSpace(line[i:])
		}
	}
	if base == "" || pbase == "" {
		t.Fatalf("missing banners (serving=%q pprof=%q); err=%v", base, pbase, <-done)
	}

	resp, err := http.Get(pbase + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("heap profile from %s: status %d, %d bytes", pbase, resp.StatusCode, len(body))
	}
	resp, err = http.Get(base + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("serving port served a profile: status %d", resp.StatusCode)
	}

	cancel()
	go io.Copy(io.Discard, pr)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after cancel")
	}
}

// TestLoadtestHeapProfileAndSnapshot runs the self-contained loadtest
// with -profile heap and -out, and checks: the profile file is
// written, the report carries the alloc/GC fields, and the snapshot
// includes the server-side per-area series (the shared-recorder path).
func TestLoadtestHeapProfileAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	prof := dir + "/heap.pprof"
	snap := dir + "/load.json"
	var out bytes.Buffer
	args := []string{"loadtest", "-clients", "2", "-requests", "3", "-batch", "4",
		"-profile", "heap", "-profile-out", prof, "-out", snap, "-json"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile %s: err=%v size=%v", prof, err, fi)
	}
	text := out.String()
	i := strings.Index(text, "{")
	if i < 0 {
		t.Fatalf("no JSON report:\n%s", text)
	}
	var report server.LoadReport
	if err := json.Unmarshal([]byte(text[i:]), &report); err != nil {
		t.Fatal(err)
	}
	if report.Decisions != 24 {
		t.Fatalf("report %+v, want 24 decisions", report)
	}
	if report.AllocsPerOp <= 0 {
		t.Errorf("decide_allocs_per_op = %v, want > 0", report.AllocsPerOp)
	}
	if report.GCCycles < 0 || report.GCPauseMs < 0 {
		t.Errorf("negative GC accounting: %d cycles, %v ms", report.GCCycles, report.GCPauseMs)
	}
	if len(report.TopAreas) == 0 {
		t.Error("no per-area attribution; the in-process server should share the recorder")
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loadtest_request_ms", "decide_area_ms", "decide_allocs_per_op"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
}

// TestLoadtestTextOutput checks the human-readable report path.
func TestLoadtestTextOutput(t *testing.T) {
	var out bytes.Buffer
	args := []string{"loadtest", "-clients", "2", "-requests", "2", "-batch", "2"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loadtest:", "requests", "decisions", "latency ms"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestServeFlagTableMatchesDocs: docs/SERVER.md's flag table lists
// exactly the flags idled serve defines, so the two cannot drift apart.
func TestServeFlagTableMatchesDocs(t *testing.T) {
	// serve -h prints its flag defaults to standard error.
	usage, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	defer usage.Close()
	stderr := os.Stderr
	os.Stderr = usage
	err = run(context.Background(), []string{"serve", "-h"}, io.Discard)
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("serve -h: %v", err)
	}
	printed, err := os.ReadFile(usage.Name())
	if err != nil {
		t.Fatal(err)
	}
	var defined []string
	for _, m := range regexp.MustCompile(`(?m)^  (-[a-z-]+)`).FindAllStringSubmatch(string(printed), -1) {
		defined = append(defined, m[1])
	}

	doc, err := os.ReadFile("../../docs/SERVER.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Flags\n")
	if !ok {
		t.Fatal("docs/SERVER.md has no Flags section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var listed []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(-[a-z-]+)` \\|").FindAllStringSubmatch(section, -1) {
		listed = append(listed, m[1])
	}
	sort.Strings(listed)
	if len(defined) == 0 || strings.Join(listed, " ") != strings.Join(defined, " ") {
		t.Errorf("docs/SERVER.md flag table lists\n  %v\nidled serve defines\n  %v", listed, defined)
	}
}
