// Command idlectl is the deployment-facing controller tool: tune a policy
// from an observed stop trace, persist it as JSON, inspect it, replay it
// over traces, and render metrics snapshots.
//
// Usage:
//
//	idlectl [-cpuprofile f] [-memprofile f] [-trace f] [-workers N] <command> [flags]
//
//	idlectl tune  -b 28 [-robust] [-conf 0.95] [-stops trace.txt] [-o policy.json]
//	idlectl show  -policy policy.json
//	idlectl replay -policy policy.json [-stops trace.txt] [-seed N] [-metrics path]
//	idlectl synth -plan urban|suburb|downtown [-days N] [-seed N]
//	idlectl stats [-metrics snapshot.json]
//	idlectl engines
//	idlectl frontier [-b 28] [-mu 4] [-q 0.25] [-engine softml|distadvice] [-lambdas 0,0.5,1] [-json]
//	idlectl audit verify [-log audit.jsonl]
//	idlectl cr [-log audit.jsonl] [-json]
//	idlectl snapshot save [-target URL] [-o state.json]
//	idlectl snapshot load [-target URL] [-i state.json]
//	idlectl bench run [-out BENCH_NNNN.json] [-runs N] [-scale F] [-seq N] [-filter s]
//	idlectl bench compare -base BENCH_A.json -head BENCH_B.json [-max-regress 10%]
//
// The global -cpuprofile, -memprofile and -trace flags write Go
// pprof/execution-trace profiles covering the command's run. The replay
// command's -metrics flag dumps an observability registry snapshot
// ("-" = stdout): per-stop cost histograms with p50/p90/p99, engine
// transition counters, the selected vertex strategy, and threshold-draw
// distributions. The stats command renders such a snapshot as text
// charts (it also recognizes BENCH_*.json perf captures and renders
// them as a benchmark table). The engines command lists the registered
// policy engines idled can serve (the specs accepted by
// `idled serve -policy` and the wire "policy" field), including each
// engine's accepted params and their ranges. The frontier command
// sweeps the learning-augmented engines' trust parameter over a panel
// of predictor models and tabulates the consistency-robustness
// frontier (see docs/FRONTIER.md). The audit verify
// command replays an idled decision audit log (serve -audit-log)
// through its recorded policy engine and proves every decision —
// choice, threshold, and any multi-state schedule — reproduces
// bit-for-bit; observe-stream records are re-derived through the pure
// moment transition the same way (see docs/OBSERVABILITY.md). The cr
// command rebuilds the competitive-ratio ledger table from an audit
// log alone — ledger-opted decide records re-issue, settle records
// re-join — reproducing what the daemon served at GET /v1/cr. The
// snapshot commands move the checksummed state plane between daemons:
// save a warm donor, load a cold replica (or boot it with
// `idled serve -restore`). The bench commands capture
// and regression-gate the perf trajectory (see docs/BENCHMARKS.md).
//
// Stop traces are plain text: one stop length in seconds per line; blank
// lines and lines starting with '#' are ignored. With no -stops the trace
// is read from stdin.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"idlereduce/internal/costmodel"
	"idlereduce/internal/drivecycle"
	"idlereduce/internal/obs"
	"idlereduce/internal/parallel"
	"idlereduce/internal/perf"
	"idlereduce/internal/policy"
	"idlereduce/internal/server"
	"idlereduce/internal/simulator"
	"idlereduce/internal/skirental"
	"idlereduce/internal/stats"
	"idlereduce/internal/textplot"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "idlectl:", err)
		os.Exit(1)
	}
}

const usage = "usage: idlectl [-cpuprofile f] [-memprofile f] [-trace f] [-workers N] <tune|show|replay|synth|stats|engines|frontier|audit|cr|snapshot|bench> [flags]"

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	gfs := flag.NewFlagSet("idlectl", flag.ContinueOnError)
	workers := gfs.Int("workers", 0, "parallel worker pool size for library fan-outs (0 = GOMAXPROCS)")
	var prof obs.Profiles
	prof.AddFlags(gfs)
	gfs.Usage = func() {
		fmt.Fprintln(gfs.Output(), usage)
		gfs.PrintDefaults()
	}
	if err := gfs.Parse(args); err != nil {
		return err
	}
	rest := gfs.Args()
	if len(rest) < 1 {
		return fmt.Errorf(usage)
	}
	parallel.SetDefaultWorkers(*workers)
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	var cmdErr error
	switch rest[0] {
	case "tune":
		cmdErr = tune(rest[1:], stdin, stdout)
	case "show":
		cmdErr = show(rest[1:], stdout)
	case "replay":
		cmdErr = replay(rest[1:], stdin, stdout)
	case "synth":
		cmdErr = synth(rest[1:], stdout)
	case "stats":
		cmdErr = statsCmd(rest[1:], stdin, stdout)
	case "engines":
		cmdErr = enginesCmd(rest[1:], stdout)
	case "frontier":
		cmdErr = frontierCmd(rest[1:], stdin, stdout)
	case "audit":
		cmdErr = auditCmd(rest[1:], stdin, stdout)
	case "cr":
		cmdErr = crCmd(rest[1:], stdin, stdout)
	case "snapshot":
		cmdErr = snapshotCmd(rest[1:], stdout)
	case "bench":
		cmdErr = benchCmd(rest[1:], stdout)
	default:
		cmdErr = fmt.Errorf("unknown command %q (want tune, show, replay, synth, stats, engines, frontier, audit, cr, snapshot or bench)", rest[0])
	}
	if perr := stopProf(); perr != nil && cmdErr == nil {
		cmdErr = perr
	}
	return cmdErr
}

// readStops parses a stop trace: one float per line.
func readStops(path string, stdin io.Reader) ([]float64, error) {
	var r io.Reader = stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var stops []float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		v, err := strconv.ParseFloat(txt, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %q is not a stop length", line, txt)
		}
		if v < 0 {
			return nil, fmt.Errorf("line %d: negative stop length %v", line, v)
		}
		stops = append(stops, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(stops) == 0 {
		return nil, fmt.Errorf("no stops in input")
	}
	return stops, nil
}

func loadPolicy(path string) (skirental.Policy, error) {
	if path == "" {
		return nil, fmt.Errorf("-policy required")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return skirental.UnmarshalPolicy(data)
}

func tune(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	b := fs.Float64("b", 28, "break-even interval (s)")
	robust := fs.Bool("robust", false, "guard a 95% confidence rectangle instead of the point estimate")
	conf := fs.Float64("conf", 0.95, "confidence level for -robust")
	stopsPath := fs.String("stops", "", "stop trace file (default stdin)")
	outPath := fs.String("o", "", "write the policy spec here (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stops, err := readStops(*stopsPath, stdin)
	if err != nil {
		return err
	}

	var pol skirental.Policy
	var note string
	if *robust {
		rp, err := skirental.NewRobustConstrainedFromStops(*b, stops, *conf)
		if err != nil {
			return err
		}
		iv := rp.Interval()
		note = fmt.Sprintf("# robust selection %s over mu in [%.2f, %.2f], q in [%.3f, %.3f]; CR <= %.4f\n",
			rp.Choice(), iv.MuLo, iv.MuHi, iv.QLo, iv.QHi, rp.WorstCaseCR())
		// Persist the concrete selected vertex (the wrapper is stateful).
		pol, err = vertexPolicy(*b, rp.Choice(), stops)
		if err != nil {
			return err
		}
	} else {
		cp, err := skirental.NewConstrainedFromStops(*b, stops)
		if err != nil {
			return err
		}
		s := cp.Stats()
		note = fmt.Sprintf("# proposed selection %s at mu_B- = %.2f, q_B+ = %.3f; worst-case CR <= %.4f\n",
			cp.Choice(), s.MuBMinus, s.QBPlus, cp.WorstCaseCR())
		pol = cp
	}
	data, err := skirental.MarshalPolicy(pol)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, note)
	if *outPath == "" {
		fmt.Fprintf(stdout, "%s\n", data)
		return nil
	}
	if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *outPath)
	return nil
}

// vertexPolicy materializes the robust wrapper's selected vertex as a
// serializable policy.
func vertexPolicy(b float64, c skirental.Choice, stops []float64) (skirental.Policy, error) {
	switch c {
	case skirental.ChoiceTOI:
		return skirental.NewTOI(b), nil
	case skirental.ChoiceDET:
		return skirental.NewDET(b), nil
	case skirental.ChoiceNRand:
		return skirental.NewNRand(b), nil
	case skirental.ChoiceBDet:
		s, err := skirental.EstimateStats(stops, b)
		if err != nil {
			return nil, err
		}
		vc := skirental.ComputeVertexCosts(b, s)
		return skirental.NewBDet(b, vc.BDetThreshold), nil
	default:
		return nil, fmt.Errorf("unknown choice %v", c)
	}
}

func show(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("show", flag.ContinueOnError)
	policyPath := fs.String("policy", "", "policy spec JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pol, err := loadPolicy(*policyPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "policy: %s (B = %.1f s)\n", pol.Name(), pol.B())
	if c, ok := pol.(*skirental.Constrained); ok {
		s := c.Stats()
		fmt.Fprintf(stdout, "selected vertex: %s (mu_B- = %.2f, q_B+ = %.3f)\n", c.Choice(), s.MuBMinus, s.QBPlus)
		fmt.Fprintf(stdout, "worst-case CR:   %.4f\n", c.WorstCaseCR())
	}
	fmt.Fprintf(stdout, "expected cost for sample stops:\n")
	for _, y := range []float64{5, 15, 30, 60, 300} {
		fmt.Fprintf(stdout, "  stop %5.0f s -> %7.2f idle-s equivalents\n", y, pol.MeanCostForStop(y))
	}
	return nil
}

// replay runs a persisted policy over a trace through the simulator and
// prints its costs in the idle-second equivalents the paper reasons in.
func replay(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	policyPath := fs.String("policy", "", "policy spec JSON")
	stopsPath := fs.String("stops", "", "stop trace file (default stdin)")
	seed := fs.Uint64("seed", 1, "RNG seed for randomized policies")
	verbose := fs.Bool("v", false, "print per-stop decisions")
	metrics := fs.String("metrics", "", `write a metrics registry snapshot here after the replay ("-" = stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pol, err := loadPolicy(*policyPath)
	if err != nil {
		return err
	}
	stops, err := readStops(*stopsPath, stdin)
	if err != nil {
		return err
	}

	ctx := context.Background()
	var rec *obs.Recorder
	if *metrics != "" {
		rec = obs.NewRecorder(fmt.Sprintf("replay-seed-%d", *seed), nil, nil)
		ctx = obs.WithRecorder(ctx, rec)
	}
	if sel, ok := pol.(skirental.Selector); ok {
		skirental.RecordSelection(ctx, sel)
	}
	// The simulator plays in seconds; a unit idling rate only satisfies
	// its cost-ratio check.
	costs := costmodel.CostRatio{IdlingCentsPerSec: 1, RestartCents: pol.B()}
	res, err := simulator.RunContext(ctx, simulator.Config{
		Costs:  costs,
		Policy: skirental.Instrument(ctx, pol),
	}, stops, stats.NewRNG(*seed))
	if err != nil {
		return err
	}
	if *verbose {
		for i, out := range res.Stops {
			action := "drove off while idling"
			if out.Restarted {
				action = fmt.Sprintf("engine off at %.1f s", out.Threshold)
			}
			fmt.Fprintf(stdout, "stop %3d: %7.1f s  %-24s cost %7.2f\n", i+1, out.Length, action, out.Online)
		}
	}
	// Echo the seed so the report alone reproduces a randomized replay.
	fmt.Fprintf(stdout, "seed %d\n", *seed)
	fmt.Fprintf(stdout, "stops %d, restarts %d\n", len(stops), res.Restarts)
	fmt.Fprintf(stdout, "online cost %.1f, offline %.1f, CR %.4f\n",
		res.OnlineSec, res.OfflineSec, res.OnlineSec/res.OfflineSec)
	if rec != nil {
		return writeSnapshot(rec.Snapshot(), *metrics, stdout)
	}
	return nil
}

// writeSnapshot dumps a snapshot as JSON to path ("-" = the command's
// stdout).
func writeSnapshot(snap obs.Snapshot, path string, stdout io.Writer) error {
	if path == "-" {
		return snap.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statsCmd renders a metrics snapshot (as written by replay -metrics or
// idlereduce -metrics) as text tables and bar charts. BENCH_*.json perf
// captures share the command: they are detected by their schema stamp
// and rendered as a benchmark table instead.
func statsCmd(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	path := fs.String("metrics", "", "metrics snapshot or BENCH capture JSON (default stdin)")
	width := fs.Int("w", 40, "bar width for counter charts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := fileOrStdin(*path, stdin)
	if err != nil {
		return err
	}
	if perf.IsCapture(data) {
		return renderBenchFile(data, stdout)
	}
	snap, err := obs.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if snap.RunID != "" {
		fmt.Fprintf(stdout, "run: %s\n\n", snap.RunID)
	}
	if len(snap.Counters) > 0 {
		chart := textplot.BarChart{Title: "counters", Width: *width}
		for _, c := range snap.Counters {
			chart.Add(c.Name, float64(c.Value))
		}
		fmt.Fprintln(stdout, chart.Render())
	}
	if len(snap.Gauges) > 0 {
		rows := [][]string{{"gauge", "value"}}
		for _, g := range snap.Gauges {
			rows = append(rows, []string{g.Name, fmt.Sprintf("%.4g", g.Value)})
		}
		fmt.Fprintln(stdout, textplot.Table(rows))
	}
	if len(snap.Histograms) > 0 {
		rows := [][]string{{"histogram", "count", "mean", "p50", "p90", "p99", "min", "max"}}
		for _, h := range snap.Histograms {
			rows = append(rows, []string{
				h.Name,
				fmt.Sprintf("%d", h.Count),
				fmt.Sprintf("%.4g", h.Mean),
				fmt.Sprintf("%.4g", h.P50),
				fmt.Sprintf("%.4g", h.P90),
				fmt.Sprintf("%.4g", h.P99),
				fmt.Sprintf("%.4g", h.Min),
				fmt.Sprintf("%.4g", h.Max),
			})
		}
		fmt.Fprint(stdout, textplot.Table(rows))
	}
	return nil
}

// enginesCmd lists the registered policy engines: the specs accepted
// by `idled serve -policy`, `idled loadtest -policy`, and the wire
// "policy" request field.
func enginesCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("engines", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: idlectl engines")
	}
	rows := [][]string{{"engine", "spec", "default", "params", "description"}}
	for _, name := range policy.Names() {
		e, ok := policy.Get(name)
		if !ok {
			continue
		}
		def := ""
		if name == policy.DefaultEngine {
			def = "yes"
		}
		params := "-"
		if pe, ok := e.(policy.Parametric); ok {
			var specs []string
			for _, p := range pe.Params() {
				specs = append(specs, fmt.Sprintf("%s=%g in [%g,%g]", p.Name, p.Default, p.Min, p.Max))
			}
			if len(specs) > 0 {
				params = strings.Join(specs, " ")
			}
		}
		rows = append(rows, []string{name, policy.Spec(e), def, params, e.Doc()})
	}
	fmt.Fprint(stdout, textplot.Table(rows))
	return nil
}

// auditCmd hosts the audit-log subcommands; verify replays an idled
// decision audit log through the pure policy engine, proving each
// record's (choice, threshold) reproduces bit-for-bit from its inputs.
// A truncated final line (crash shape) is skipped with a note; any
// mismatch or mid-file corruption is a non-zero exit.
func auditCmd(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) < 1 || args[0] != "verify" {
		return fmt.Errorf("usage: idlectl audit verify [-log audit.jsonl]")
	}
	fs := flag.NewFlagSet("audit verify", flag.ContinueOnError)
	logPath := fs.String("log", "", "decision audit log written by idled serve -audit-log (default stdin)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	var r io.Reader = stdin
	if *logPath != "" && *logPath != "-" {
		f, err := os.Open(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rep, err := server.VerifyAudit(r)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.String())
	if !rep.OK() {
		return fmt.Errorf("audit verification failed: %d mismatched, %d corrupt of %d records",
			rep.Mismatched, rep.Corrupt, rep.Records)
	}
	return nil
}

// synth generates a stop trace from a mechanistic drive-cycle preset,
// one stop per line — handy for demos and for exercising tune/replay
// without real data.
func synth(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	plan := fs.String("plan", "urban", "drive-cycle preset: urban, suburb or downtown")
	days := fs.Int("days", 7, "number of days to generate")
	seed := fs.Uint64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var dp drivecycle.DayPlan
	switch *plan {
	case "urban":
		dp = drivecycle.UrbanCommute()
	case "suburb":
		dp = drivecycle.SuburbanCommute()
	case "downtown":
		dp = drivecycle.DowntownGridlock()
	default:
		return fmt.Errorf("unknown plan %q (want urban, suburb or downtown)", *plan)
	}
	if *days < 1 {
		return fmt.Errorf("days must be positive")
	}
	rng := stats.NewRNG(*seed)
	fmt.Fprintf(stdout, "# %s plan, %d days, seed %d\n", *plan, *days, *seed)
	for d := 0; d < *days; d++ {
		stopsSeq, err := dp.Day(rng)
		if err != nil {
			return err
		}
		for _, y := range stopsSeq {
			fmt.Fprintf(stdout, "%.2f\n", y)
		}
	}
	return nil
}
