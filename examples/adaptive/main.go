// Adaptive: deploy the constrained policy without knowing the traffic
// statistics in advance. The controller estimates (mu_B-, q_B+) from the
// stops it experiences — generated here by the mechanistic drive-cycle
// model — and re-selects its strategy on the fly, including across a
// mid-week regime change from a suburban commute to downtown gridlock.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/drivecycle"
	"idlereduce/internal/skirental"
)

func main() {
	const b = 28.0 // SSV break-even interval
	rng := rand.New(rand.NewPCG(7, 11))

	// Phase 1: a light suburban commute (short stops dominate).
	suburb := drivecycle.SuburbanCommute()

	// Phase 2: downtown gridlock (heavy congestion, more errands).
	downtown := drivecycle.DowntownGridlock()

	var stops []float64
	var phase2Start int
	for day := 0; day < 5; day++ {
		ds, err := suburb.Day(rng)
		if err != nil {
			log.Fatal(err)
		}
		stops = append(stops, ds...)
	}
	phase2Start = len(stops)
	for day := 0; day < 5; day++ {
		ds, err := downtown.Day(rng)
		if err != nil {
			log.Fatal(err)
		}
		stops = append(stops, ds...)
	}
	fmt.Printf("Trace: %d suburban stops, then %d downtown stops\n\n", phase2Start, len(stops)-phase2Start)

	policy, err := adaptive.New(adaptive.Config{B: b, Forgetting: 0.98})
	if err != nil {
		log.Fatal(err)
	}

	var online, offline float64
	lastChoice := policy.Choice()
	fmt.Printf("stop %4d: playing %s (warmup)\n", 0, lastChoice)
	for i, y := range stops {
		stop := skirental.Play(policy.Threshold(rng), y, b)
		online += stop.Online
		offline += stop.Opt
		if err := policy.Observe(y); err != nil {
			log.Fatal(err)
		}
		if c := policy.Choice(); c != lastChoice {
			s := policy.Stats()
			fmt.Printf("stop %4d: switched to %-6s (est. mu_B- = %5.1f s, q_B+ = %.2f)\n",
				i+1, c, s.MuBMinus, s.QBPlus)
			lastChoice = c
		}
	}

	fmt.Printf("\nAdaptive realized CR: %.3f\n", online/offline)

	// Compare with clairvoyant-statistics static policies per phase.
	static1, _ := skirental.NewConstrainedFromStops(b, stops[:phase2Start])
	static2, _ := skirental.NewConstrainedFromStops(b, stops[phase2Start:])
	fmt.Printf("Static oracle per phase: %s then %s\n", static1.Choice(), static2.Choice())
	fmt.Printf("N-Rand (no statistics) CR: %.3f\n", skirental.TraceCR(skirental.NewNRand(b), stops))
}
