// Trafficsweep: a Figures 5-6-style study. The Chicago stop-length shape
// is rescaled across traffic conditions (mean stop length 2 s to 10 min)
// and every strategy's worst-case competitive ratio is charted.
//
// Run with: go run ./examples/trafficsweep
package main

import (
	"fmt"
	"log"
	"strings"

	"idlereduce/internal/analysis"
	"idlereduce/internal/fleet"
	"idlereduce/internal/textplot"
)

func main() {
	shape := fleet.Chicago.StopLengthDistribution()
	means := analysis.SweepMeans(2, 600, 24)

	for _, b := range []float64{28, 47} {
		pts, err := analysis.TrafficSweep(b, shape, means)
		if err != nil {
			log.Fatal(err)
		}
		chart := &textplot.LineChart{
			Title:  fmt.Sprintf("Worst-case CR vs mean stop length, B = %.0f s (log x)", b),
			Width:  80,
			Height: 16,
			YMin:   1,
			YMax:   2.2,
			LogX:   true,
		}
		series := func(name string, pick func(analysis.SweepPoint) float64) textplot.Series {
			s := textplot.Series{Name: name}
			for _, p := range pts {
				s.X = append(s.X, p.MeanStopSec)
				s.Y = append(s.Y, pick(p))
			}
			return s
		}
		chart.Add(series("DET", func(p analysis.SweepPoint) float64 { return p.Baselines["DET"] }))
		chart.Add(series("TOI", func(p analysis.SweepPoint) float64 { return p.Baselines["TOI"] }))
		chart.Add(series("N-Rand", func(p analysis.SweepPoint) float64 { return p.Baselines["N-Rand"] }))
		chart.Add(series("Proposed", func(p analysis.SweepPoint) float64 { return p.Proposed }))
		// The chart pads its rows to full width. The trailing blanks
		// are trimmed so the output can be pinned in an Output comment,
		// from which gofmt strips them.
		for _, row := range strings.Split(chart.Render(), "\n") {
			fmt.Println(strings.TrimRight(row, " "))
		}

		// Report the regime boundaries: where the proposed selection
		// changes vertex.
		prev := pts[0].Choice
		fmt.Printf("traffic regimes (B = %.0f s): %s", b, prev)
		for _, p := range pts[1:] {
			if p.Choice != prev {
				fmt.Printf(" -> %s (from mean %.0f s)", p.Choice, p.MeanStopSec)
				prev = p.Choice
			}
		}
		fmt.Print("\n\n")
	}
}
