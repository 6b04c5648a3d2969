package main

// paper_all: in one process with Workers = 1, generate the paper-scale
// fleet (217/312/653 vehicles) and run every experiment driver that
// `idlereduce all` runs, in the same order. It is the reproduction's
// own job and the control for every serving change.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"idlereduce/internal/experiments"
	"idlereduce/internal/fleet"
)

// paperDrivers lists the drivers `idlereduce all` runs, in order.
var paperDrivers = []string{
	"breakeven", "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"ablations", "drivecycle", "bsweep", "savings", "multislope", "verify",
}

const (
	// paperDefaultSeed is the repository's experiment seed.
	paperDefaultSeed = 20140601
	// paperDefaultDigest is the sha256 of every driver's rendered
	// report (name, newline, report) for paperDefaultSeed.
	paperDefaultDigest = "a3ee03b250bfdb600e833745da34a9512c0bdeaf020f972ee89a43aceccac0fd"
	// paperSetups is the number of fleet generations timed for setup_s.
	paperSetups = 3
	// paperLimit is the slo_share limit of one pass over every driver.
	paperLimit = 60 * time.Second
)

// runDriver runs one experiment driver on the fleet, as
// `idlereduce <name>` does with its default -b 28.
func runDriver(name string, o experiments.Options, fl *fleet.Fleet) (string, []experiments.Fig4Result, error) {
	const b = paperB
	var out string
	var err error
	switch name {
	case "breakeven":
		_, out, err = experiments.AppendixC(o)
	case "table1":
		_, out, err = experiments.Table1(o, fl)
	case "fig1":
		_, out = experiments.Fig1(o, b)
	case "fig2":
		_, out = experiments.Fig2(o, b)
	case "fig3":
		_, out, err = experiments.Fig3(o, fl)
	case "fig4":
		res, out, err := experiments.Fig4(o, fl)
		return out, res, err
	case "fig5":
		_, out, err = experiments.Fig5(o)
	case "fig6":
		_, out, err = experiments.Fig6(o)
	case "ablations":
		_, out, err = experiments.Ablations(o, fl)
	case "drivecycle":
		_, out, err = experiments.DriveCycle(o, b)
	case "bsweep":
		_, out, err = experiments.BSweep(o)
	case "savings":
		_, out, err = experiments.FleetSavings(o, fl)
	case "multislope":
		_, out, err = experiments.Multislope(o, fl)
	case "verify":
		_, out, err = experiments.Verify(o, b)
	default:
		err = fmt.Errorf("unknown driver %q", name)
	}
	return out, nil, err
}

// paperPass is one timed pass over every driver.
type paperPass struct {
	wall    time.Duration
	cpu     time.Duration // process CPU of the pass
	drivers map[string]time.Duration
	digest  string
	crs     int // per-vehicle CRs checked
}

// runPaperPass runs every driver once and checks the per-vehicle CRs.
func runPaperPass(e *env, rep *report, o experiments.Options, fl *fleet.Fleet, parent int) (paperPass, error) {
	p := paperPass{drivers: map[string]time.Duration{}}
	h := sha256.New()
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return p, err
	}
	start := time.Now()
	for _, name := range paperDrivers {
		t0 := time.Now()
		out, fig4, err := runDriver(name, o, fl)
		t1 := time.Now()
		if err != nil {
			return p, fmt.Errorf("%s: %w", name, err)
		}
		e.spans.add("experiments."+name, parent, "", t0, t1, 1, 0, 0)
		p.drivers[name] = t1.Sub(t0)
		fmt.Fprintf(h, "%s\n%s", name, out)
		for _, r := range fig4 {
			for _, v := range r.Eval.Vehicles {
				for pol, cr := range v.CR {
					p.crs++
					if !(cr >= 1-1e-12) {
						rep.fail("fig4 B=%v vehicle %s policy %s: CR %v < 1", r.B, v.ID, pol, cr)
					}
				}
			}
		}
	}
	p.wall = time.Since(start)
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return p, err
	}
	p.cpu = cpu1 - cpu0
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

func runPaperAll(e *env) (*report, error) {
	rep := &report{}
	o := experiments.Options{Seed: e.seed, Workers: 1}

	var setups []float64
	var fl *fleet.Fleet
	for i := 0; i < paperSetups; i++ {
		t0 := time.Now()
		f, err := o.BuildFleet()
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		e.spans.add("fleet.generate", 0, "", t0, t1, 1, 0, 0)
		setups = append(setups, t1.Sub(t0).Seconds())
		fl = f
	}
	stops := 0
	for _, v := range fl.Vehicles {
		stops += len(v.Stops)
	}

	// Passes run until --seconds have elapsed (at least two, so
	// determinism across passes is checked). In a traced run the first
	// half of the budget is untraced and the rest records driver spans.
	var passes [3][]paperPass
	budget := time.Duration(e.seconds) * time.Second
	start := time.Now()
	for phase := 1; phase <= 2; phase++ {
		end := start.Add(budget)
		if e.traced && phase == 1 {
			end = start.Add(budget / 2)
		}
		if !e.traced && phase == 2 {
			break
		}
		spans := e.spans
		if phase == 1 {
			e.spans = nil
		}
		for len(passes[phase]) < 1 || (len(passes[1])+len(passes[2]) < 2) || time.Now().Before(end) {
			parent := e.spans.open("paper.pass", time.Now())
			p, err := runPaperPass(e, rep, o, fl, parent)
			e.spans.close(parent, time.Now())
			if err != nil {
				return nil, err
			}
			passes[phase] = append(passes[phase], p)
		}
		e.spans = spans
	}
	rss, err := procPeakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	all := append(append([]paperPass(nil), passes[1]...), passes[2]...)
	for _, p := range all {
		if p.digest != all[0].digest {
			rep.fail("report digest differs between passes: %s vs %s", p.digest, all[0].digest)
			break
		}
	}
	if e.seed == paperDefaultSeed && all[0].digest != paperDefaultDigest {
		rep.fail("report digest %s differs from the recorded %s for seed %d", all[0].digest, paperDefaultDigest, e.seed)
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("fleet: %d vehicles, %d stops; report digest %s", len(fl.Vehicles), stops, all[0].digest),
		fmt.Sprintf("check per-vehicle CR >= 1: %d CRs", all[0].crs))

	// The reproduction's operation is one pass: what `idlereduce all`
	// does for a user. Driver calls vary from 0.1 ms to seconds, so
	// quantiles over them would only report which driver sits at the
	// rank; quantiles over passes are steady.
	metrics := func(ps []paperPass) []metric {
		var walls, cpus []float64
		var lat []int64
		var slo int64
		for _, p := range ps {
			walls = append(walls, p.wall.Seconds())
			cpus = append(cpus, float64(p.cpu.Microseconds()))
			lat = append(lat, int64(p.wall))
			if p.wall <= paperLimit {
				slo++
			}
		}
		n := int64(len(ps))
		rep.notes = append(rep.notes, fmt.Sprintf("passes %d (latency samples), driver calls %d, failed 0; pass wall s %.4f",
			n, n*int64(len(paperDrivers)), walls))
		return []metric{
			{"setup_s", "s", median(setups)},
			{"p50_ms", "ms", float64(quantileNS(lat, 0.50)) / 1e6},
			{"p99_ms", "ms", float64(quantileNS(lat, 0.99)) / 1e6},
			{"cpu_us_per_op", "us", median(cpus)},
			{"slo_share", "ratio", float64(slo) / float64(max(n, 1))},
			{"peak_rss_mb", "MB", rss},
			{"run_s", "s", median(walls)},
		}
	}
	rep.attempted = int64(len(passes[1]) + len(passes[2]))
	rep.e2e = metrics(passes[1])
	if e.traced {
		rep.tracedE2E = metrics(passes[2])
		areas, err := paperAreaStates(paperB)
		if err != nil {
			return nil, err
		}
		in := &layerInputs{
			areas:        areas,
			decideBodies: hotDecideBodies(e.seed, 0, hotBodies, areas),
			fleet:        fl,
			setups:       setups,
			passes:       passes[2],
		}
		if err := measureLayers(e, rep, in); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
