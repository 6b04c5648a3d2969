// Command idled is the decision-serving daemon: a long-running HTTP
// API that answers online idling decisions from the constrained
// ski-rental policy, backed by a read-mostly per-area strategy cache
// (see docs/SERVER.md).
//
// Usage:
//
//	idled serve    [-addr HOST:PORT] [-max-inflight N]
//	               [-areas FILE] [-b SECONDS] [-seed N] [-max-batch N]
//	               [-policy ENGINE] [-restore FILE]
//	               [-forgetting F] [-min-observations N]
//	               [-drift-threshold H] [-retune-off] [-drain-timeout D]
//	               [-trace-log FILE] [-audit-log FILE] [-audit-max-bytes N]
//	               [-history-interval D] [-history-window N]
//	               [-pprof-addr HOST:PORT]
//	idled loadtest [-target URL] [-clients N] [-requests N] [-batch N]
//	               [-seed N] [-policy ENGINE] [-max-inflight N]
//	               [-synthetic-areas N] [-observe F] [-miss F]
//	               [-hot N] [-settle F] [-json] [-out report.json]
//	               [-profile cpu|heap] [-profile-out FILE]
//	idled top      [-target URL] [-interval D] [-frames N] [-once] [-w N]
//	idled areas-template
//
// serve runs until SIGINT/SIGTERM, then drains in-flight requests
// gracefully; -policy makes a registered engine (see `idlectl engines`)
// the daemon's default — it is prepared for every area at boot, so a
// daemon whose engine cannot serve its areas fails fast instead of
// 4xx-ing at runtime; -trace-log and -audit-log enable the
// request-forensics sinks (JSONL span records and replayable decision
// audit records, see
// docs/OBSERVABILITY.md); -pprof-addr mounts net/http/pprof on a
// dedicated listener (never the serving port) for live CPU/heap
// profiling of the running daemon (see docs/BENCHMARKS.md); -restore
// boots from a state-plane snapshot (`idlectl snapshot save`) so a
// replica starts warm; and the -forgetting, -min-observations,
// -drift-threshold and -retune-off knobs tune the POST /v1/observe
// re-tune loop. loadtest
// drives concurrent batch-decision clients at -target, or at a private
// in-process server when -target is empty, and reports achieved QPS,
// latency quantiles, allocations per decision and GC pause totals from
// the harness's metrics registry; -observe mixes in streamed
// stop observations (with a mid-run drift so CUSUM re-tunes fire),
// -miss forces a controlled cache-miss rate, -synthetic-areas scales
// the in-process server to N fabricated areas, -settle runs the
// competitive-ratio join on a fraction of slots (ledger-opted decides
// settled back via decision_id observes, with a deterministic sprinkle
// of corrupted ids proving the fail-closed path); -out additionally
// writes the registry snapshot as JSON (the obs snapshot schema,
// readable by `idlectl stats`), and -profile captures a cpu or heap
// profile of the run to -profile-out. top renders a live terminal
// dashboard from the target's /v1/history time series. areas-template
// prints the default -areas config (the three paper areas at B = 28 s)
// as editable JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"idlereduce/internal/obs"
	"idlereduce/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "idled:", err)
		os.Exit(1)
	}
}

const usage = "usage: idled <serve|loadtest|top|areas-template> [flags]"

func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf(usage)
	}
	switch args[0] {
	case "serve":
		return serve(ctx, args[1:], stdout)
	case "loadtest":
		return loadtest(ctx, args[1:], stdout)
	case "top":
		return top(ctx, args[1:], stdout)
	case "areas-template":
		areas, err := server.DefaultAreaStates(28)
		if err != nil {
			return err
		}
		return server.WriteAreaStates(stdout, areas)
	default:
		return fmt.Errorf("unknown command %q (want serve, loadtest, top or areas-template)\n%s", args[0], usage)
	}
}

// loadAreas resolves the serving areas: the -areas config file, or the
// three paper areas measured at break-even interval b.
func loadAreas(path string, b float64) ([]server.AreaState, error) {
	if path == "" {
		return server.DefaultAreaStates(b)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return server.ReadAreaStates(f)
}

func serve(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("idled serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	maxInflight := fs.Int("max-inflight", 1024, "max concurrently served /v1 requests before shedding with 429")
	areasPath := fs.String("areas", "", "JSON area config file (default: the three paper areas; see areas-template)")
	b := fs.Float64("b", 28, "default break-even interval (s) for the built-in areas")
	seed := fs.Uint64("seed", 0, "root decision seed (0 = 20140601)")
	defaultPolicy := fs.String("policy", "", "default policy engine served when requests name none (e.g. multislope3; empty = constrained; see idlectl engines)")
	restorePath := fs.String("restore", "", "boot from this state-plane snapshot (idlectl snapshot save) instead of -areas")
	forgetting := fs.Float64("forgetting", 0, "observation-stream exponential decay in (0,1] (0 = default 0.98)")
	minObs := fs.Int("min-observations", 0, "observations before streamed estimates may re-tune an area (0 = default 50)")
	driftThreshold := fs.Float64("drift-threshold", 0, "CUSUM alarm threshold in baseline standard deviations (0 = default)")
	retuneOff := fs.Bool("retune-off", false, "accept observations but never re-derive strategies (shadow mode)")
	maxBatch := fs.Int("max-batch", 4096, "max decisions per batch request")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain bound")
	traceLog := fs.String("trace-log", "", "write request span records (JSONL) here; empty disables tracing")
	auditLog := fs.String("audit-log", "", "write replayable decision audit records (JSONL) here; empty disables the audit log")
	auditMaxBytes := fs.Int64("audit-max-bytes", 64<<20, "rotate -trace-log/-audit-log after this many bytes (single .1 backup)")
	historyInterval := fs.Duration("history-interval", time.Second, "metrics sampling period for GET /v1/history")
	historyWindow := fs.Int("history-window", 120, "samples retained for GET /v1/history")
	pprofAddr := fs.String("pprof-addr", "", "mount net/http/pprof on a dedicated listener at this address (never the serving port); empty disables live profiling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *b <= 0 {
		fs.Usage()
		return fmt.Errorf("-b %v must be positive", *b)
	}
	var areas []server.AreaState
	var restore *server.StatePlane
	if *restorePath != "" {
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			return err
		}
		plane, err := server.DecodeSnapshot(data)
		if err != nil {
			return err
		}
		restore = &plane
		fmt.Fprintf(stdout, "idled: restoring %d areas from %s\n", len(plane.Areas), *restorePath)
	} else {
		var err error
		if areas, err = loadAreas(*areasPath, *b); err != nil {
			return err
		}
	}
	cfg := server.Config{
		Addr:          *addr,
		MaxInflight:   *maxInflight,
		MaxBatch:      *maxBatch,
		RootSeed:      *seed,
		DefaultPolicy: *defaultPolicy,
		DrainTimeout:  *drainTimeout,
		Areas:         areas,
		Restore:       restore,
		Retune: server.RetuneConfig{
			Forgetting:      *forgetting,
			MinObservations: *minObs,
			DriftThreshold:  *driftThreshold,
			Disabled:        *retuneOff,
		},
		HistoryInterval: *historyInterval,
		HistoryWindow:   *historyWindow,
		PprofAddr:       *pprofAddr,
	}
	// The forensics sinks are size-rotated files; the server flushes
	// them during the graceful drain, the deferred Closes below sync
	// the file handles afterwards.
	for _, sink := range []struct {
		path string
		dst  *io.Writer
		name string
	}{
		{*traceLog, &cfg.TraceLog, "trace"},
		{*auditLog, &cfg.AuditLog, "audit"},
	} {
		if sink.path == "" {
			continue
		}
		f, err := obs.OpenRotatingFile(sink.path, *auditMaxBytes)
		if err != nil {
			return fmt.Errorf("open %s log: %w", sink.name, err)
		}
		defer f.Close()
		*sink.dst = f
		fmt.Fprintf(stdout, "idled: %s log -> %s\n", sink.name, sink.path)
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	bound, err := srv.Listen()
	if err != nil {
		return err
	}
	count := len(areas)
	if restore != nil {
		count = len(restore.Areas)
	}
	fmt.Fprintf(stdout, "idled: serving %d areas on http://%s\n", count, bound)
	if pa := srv.PprofAddr(); pa != "" {
		fmt.Fprintf(stdout, "idled: pprof on http://%s/debug/pprof/ (separate from the serving port)\n", pa)
	}
	err = srv.Serve(ctx)
	if err == nil {
		fmt.Fprintln(stdout, "idled: drained, bye")
	}
	return err
}

func loadtest(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("idled loadtest", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a running idled (empty = spin up a private in-process server)")
	clients := fs.Int("clients", 16, "concurrent client goroutines")
	requests := fs.Int("requests", 50, "batch requests per client")
	batch := fs.Int("batch", 8, "decisions per batch request")
	seed := fs.Uint64("seed", 0, "decision root seed sent with every batch (0 = server default)")
	policySpec := fs.String("policy", "", "policy engine stamped on every decision (e.g. multislope3; empty = target default)")
	maxInflight := fs.Int("max-inflight", 1024, "in-process server in-flight bound (ignored with -target)")
	synthAreas := fs.Int("synthetic-areas", 0, "serve N fabricated areas from the in-process server instead of the paper defaults (ignored with -target)")
	observeFrac := fs.Float64("observe", 0, "fraction of requests sent as observe batches (streamed stop observations with a mid-run drift)")
	missFrac := fs.Float64("miss", 0, "fraction of decide slots carrying a custom break-even interval (controlled cache misses)")
	settleFrac := fs.Float64("settle", 0, "fraction of slots running the competitive-ratio join (ledger-opted decides settled by decision_id observes)")
	hotAreas := fs.Int("hot", 0, "areas observe traffic concentrates on (0 = default 64)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	outPath := fs.String("out", "", "also write the harness metrics registry snapshot here as JSON (readable by idlectl stats)")
	profileKind := fs.String("profile", "", "capture a runtime profile of the load run: cpu or heap")
	profileOut := fs.String("profile-out", "", "profile output file (default <kind>.pprof; requires -profile)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *clients <= 0 || *requests <= 0 || *batch <= 0 {
		fs.Usage()
		return fmt.Errorf("-clients %d, -requests %d and -batch %d must all be positive", *clients, *requests, *batch)
	}
	if *observeFrac < 0 || *observeFrac >= 1 || *missFrac < 0 || *missFrac >= 1 ||
		*settleFrac < 0 || *settleFrac >= 1 {
		fs.Usage()
		return fmt.Errorf("-observe %v, -miss %v and -settle %v must be in [0, 1)", *observeFrac, *missFrac, *settleFrac)
	}
	if *synthAreas > 0 && *target != "" {
		fs.Usage()
		return fmt.Errorf("-synthetic-areas only applies to the in-process server (drop -target)")
	}
	switch *profileKind {
	case "", "cpu", "heap":
	default:
		fs.Usage()
		return fmt.Errorf("-profile %q: want cpu or heap", *profileKind)
	}
	if *profileOut != "" && *profileKind == "" {
		fs.Usage()
		return fmt.Errorf("-profile-out requires -profile cpu|heap")
	}
	if *profileKind != "" && *profileOut == "" {
		*profileOut = *profileKind + ".pprof"
	}

	// One recorder spans the harness and (in self-contained mode) the
	// in-process server, so the -out snapshot carries both the client
	// latency series and the server-side decide_area_ms attribution.
	rec := obs.NewRecorder("loadtest", nil, nil)

	base := *target
	if base == "" {
		// Self-contained mode: serve the default areas (or a fabricated
		// set at -synthetic-areas scale) from this process and aim the
		// harness at the loopback listener.
		var areas []server.AreaState
		if *synthAreas > 0 {
			areas = server.SyntheticAreaStates(*synthAreas, 28)
		} else {
			var err error
			if areas, err = server.DefaultAreaStates(28); err != nil {
				return err
			}
		}
		srv, err := server.New(server.Config{
			Addr:        "127.0.0.1:0",
			MaxInflight: *maxInflight,
			Areas:       areas,
			Recorder:    rec,
		})
		if err != nil {
			return err
		}
		bound, err := srv.Listen()
		if err != nil {
			return err
		}
		srvCtx, stopSrv := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() { done <- srv.Serve(srvCtx) }()
		defer func() {
			stopSrv()
			<-done
		}()
		base = "http://" + bound
		fmt.Fprintf(stdout, "loadtest: in-process server on %s\n", base)
	}

	if *profileKind == "cpu" {
		f, err := os.Create(*profileOut)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stdout, "loadtest: cpu profile -> %s\n", *profileOut)
		}()
	}
	report, err := server.RunLoad(ctx, server.LoadOptions{
		BaseURL:         base,
		Clients:         *clients,
		Requests:        *requests,
		Batch:           *batch,
		Seed:            *seed,
		Policy:          *policySpec,
		ObserveFraction: *observeFrac,
		MissFraction:    *missFrac,
		SettleFraction:  *settleFrac,
		HotAreas:        *hotAreas,
		Recorder:        rec,
	})
	if err != nil {
		return err
	}
	if *profileKind == "heap" {
		// Settle the heap so the profile reflects live objects, not
		// garbage from the run.
		runtime.GC()
		f, err := os.Create(*profileOut)
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("write heap profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loadtest: heap profile -> %s\n", *profileOut)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := rec.Snapshot().WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loadtest: metrics snapshot -> %s\n", *outPath)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	_, err = io.WriteString(stdout, report.String())
	return err
}
