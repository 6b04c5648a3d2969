// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload (hot_decide, fleet_100k or paper_all) on inputs
// generated from --seed, measures it for --seconds, checks the outputs,
// and prints every metric by name with its unit. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 1 the metrics are the per-layer ones, measured in a
// separate traced run whose spans are written as JSONL at exit.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot_decide --seed 7 --seconds 20 --trace 0
//
// See README.md for the workloads, the process layout and the spreads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// layerRow is one layer's traced totals: calls, busy time, time per
// call, allocations per call and errors.
type layerRow struct {
	name    string
	calls   int64
	busy    time.Duration
	perCall time.Duration
	allocs  float64
	errors  int64
}

// report is what a workload run produced.
type report struct {
	e2e       []metric // untraced timed phase
	tracedE2E []metric // traced run: the traced half, for the overhead
	layers    []metric // traced run: per-layer metrics
	rows      []layerRow
	notes     []string
	failures  []string
	attempted int64
	failed    int64
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// env is one benchmark invocation.
type env struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	exe      string
	dir      string   // the run's scratch directory inside the checkout
	spans    *spanLog // nil when untraced
}

var workloads = map[string]func(*env) (*report, error){
	"hot_decide": runHotDecide,
	"fleet_100k": runFleet100k,
	"paper_all":  runPaperAll,
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "child" {
		if err := childMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "spin" {
		if err := spinMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spin:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: hot_decide, fleet_100k or paper_all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seed >= 1, --seconds >= 1, --trace 0|1\n", strings.Join(names(), "|"))
		return 2
	}
	// One P per process: the generator here, the server in its child.
	runtime.GOMAXPROCS(1)
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}
	var err error
	if e.exe, err = os.Executable(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e.dir = filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d", e.workload, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	if e.traced {
		e.spans = newSpanLog()
	}

	sp, err := startSpinner(e.exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, err := fn(e)
	sp.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	if e.traced {
		path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = e.spans.writeJSONL(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(e.spans.spans), path))
	}
	return printReport(e, rep)
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// printReport prints the human-readable report and the result line. A
// failed check prints no metrics and exits 1.
func printReport(e *env, rep *report) int {
	fmt.Printf("perfbench %s seed %d seconds %d trace %v\n", e.workload, e.seed, e.seconds, e.traced)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	type result struct {
		Correct   bool                `json:"correct"`
		Attempted int64               `json:"attempted"`
		Failed    int64               `json:"failed"`
		Metrics   map[string]jsonUnit `json:"metrics"`
	}
	res := result{Correct: len(rep.failures) == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]jsonUnit{}}
	if !res.Correct {
		for _, f := range rep.failures {
			fmt.Println("  CHECK FAILED: " + f)
		}
		b, _ := json.Marshal(res)
		fmt.Println(string(b))
		return 1
	}
	if e.traced {
		fmt.Println("  end-to-end: untraced half vs traced half (tracing overhead)")
		for i, m := range rep.e2e {
			t := rep.tracedE2E[i]
			fmt.Printf("    %-16s %14.6g %14.6g %-6s %+7.2f%%\n", m.Name, m.Value, t.Value, m.Unit, 100*(t.Value/m.Value-1))
		}
		fmt.Println("  per-layer: calls, busy, per call, allocs/call, errors")
		for _, r := range rep.rows {
			fmt.Printf("    %-28s %10d %12v %12v %10.1f %6d\n", r.name, r.calls, r.busy.Round(time.Microsecond), r.perCall, r.allocs, r.errors)
		}
		for _, m := range rep.layers {
			fmt.Printf("    %-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
			res.Metrics[m.Name] = jsonUnit{m.Value, m.Unit}
		}
	} else {
		for _, m := range rep.e2e {
			fmt.Printf("    %-16s %14.6g %s\n", m.Name, m.Value, m.Unit)
			res.Metrics[m.Name] = jsonUnit{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// jsonUnit is one metric of the result line.
type jsonUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
