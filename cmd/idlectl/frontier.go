package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"
	"strings"

	"idlereduce/internal/costmodel"
	"idlereduce/internal/policy"
	"idlereduce/internal/simulator"
	"idlereduce/internal/skirental"
	"idlereduce/internal/textplot"
)

// frontierCmd sweeps the consistency-robustness frontier of the
// learning-augmented engines: for each trust level lambda and each
// predictor model, the realized mean competitive ratio on a shared
// trace, next to the closed-form worst-case guarantee of the
// thresholds that trust level can reach. The table is the Fig-4-style
// artifact: reading down the robustness column shows what trusting
// predictions costs in the worst case; reading across the oracle row
// shows what it buys when they are good.
func frontierCmd(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("frontier", flag.ContinueOnError)
	b := fs.Float64("b", 28, "break-even interval B in seconds")
	mu := fs.Float64("mu", 4, "constrained statistic mu_B- the fallback serves")
	q := fs.Float64("q", 0.25, "constrained statistic q_B+ the fallback serves")
	engine := fs.String("engine", policy.SoftMLEngine, "advised engine family: softml or distadvice")
	lambdasArg := fs.String("lambdas", "", "comma-separated trust grid (default 0,0.25,0.5,0.75,1)")
	stopsPath := fs.String("stops", "", "evaluation stop trace file (default: a synthetic seeded trace)")
	n := fs.Int("n", 2000, "synthetic trace length when no -stops is given")
	seed := fs.Uint64("seed", 20140601, "root seed for the trace and every sweep cell")
	jsonOut := fs.Bool("json", false, "emit the raw sweep as JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: idlectl frontier [-b B] [-mu M] [-q Q] [-engine softml|distadvice] [-lambdas 0,0.5,1] [-stops f] [-n N] [-seed N] [-json]")
	}

	var lambdas []float64
	if *lambdasArg != "" {
		for _, part := range strings.Split(*lambdasArg, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("bad lambda %q: %v", part, err)
			}
			lambdas = append(lambdas, v)
		}
	}

	var stops []float64
	if *stopsPath != "" {
		var err error
		if stops, err = readStops(*stopsPath, stdin); err != nil {
			return err
		}
	} else {
		if *n <= 0 {
			return fmt.Errorf("-n must be positive")
		}
		stops = syntheticFrontierTrace(*n, *b, *seed)
	}

	f, err := simulator.SweepFrontier(simulator.FrontierConfig{
		Costs:   costmodel.CostRatio{IdlingCentsPerSec: 1, RestartCents: *b},
		Stats:   skirental.Stats{MuBMinus: *mu, QBPlus: *q},
		Engine:  *engine,
		Lambdas: lambdas,
		Stops:   stops,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(f)
	}
	fmt.Fprintf(stdout, "frontier engine=%s B=%g mu=%g q=%g stops=%d seed=%d\n",
		f.Engine, f.B, f.Mu, f.Q, f.Stops, f.Seed)
	fmt.Fprint(stdout, frontierTable(f))
	return nil
}

// syntheticFrontierTrace builds the default evaluation trace: stop
// lengths uniform on (0, 4B], straddling the break-even interval so
// both forecast directions occur.
func syntheticFrontierTrace(n int, b float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x46524e54))
	stops := make([]float64, n)
	for i := range stops {
		stops[i] = 1 + rng.Float64()*(4*b-1)
	}
	return stops
}

// frontierTable renders the sweep lambda-major: one row per trust
// level, the shared robustness bound, then each predictor's realized
// mean CR.
func frontierTable(f *simulator.Frontier) string {
	var preds []string
	seen := map[string]bool{}
	for _, p := range f.Points {
		if !seen[p.Predictor] {
			seen[p.Predictor] = true
			preds = append(preds, p.Predictor)
		}
	}
	header := []string{"lambda", "robust-cr"}
	for _, p := range preds {
		header = append(header, "cr:"+p)
	}
	rows := [][]string{header}
	for i, lambda := range f.Lambdas {
		row := []string{
			strconv.FormatFloat(lambda, 'g', -1, 64),
			fmt.Sprintf("%.4f", f.Points[i].RobustnessCR),
		}
		for _, p := range preds {
			pt := f.Row(p)[i]
			row = append(row, fmt.Sprintf("%.4f", pt.MeanCR))
		}
		rows = append(rows, row)
	}
	return textplot.Table(rows)
}
