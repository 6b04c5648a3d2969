package policy

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
)

var updateAdvisedGolden = flag.Bool("update-advised-golden", false, "re-record testdata/advised_golden.txt")

// advisedGoldenRegimes cover every fallback vertex at B = 28.
var advisedGoldenRegimes = []struct {
	vertex string
	stats  Stats
}{
	{"DET", Stats{B: 28, Mu: 8, Q: 0.13}},
	{"N-Rand", Stats{B: 28, Mu: 4, Q: 0.25}},
	{"b-DET", Stats{B: 28, Mu: 0.5, Q: 0.3}},
	{"TOI", Stats{B: 28, Mu: 10, Q: 0.4}},
}

// TestAdvisedDecisionsGolden pins the advised engines' served output
// bit for bit: for both engines, four trust levels and every fallback
// vertex, each strategy's published bound, Describe and Explain, and
// the decision every panel prediction draws under seeds 1-5. Floats
// are recorded as their IEEE-754 bits. Re-record deliberately with
// `go test ./internal/policy -run TestAdvisedDecisionsGolden -update-advised-golden`.
func TestAdvisedDecisionsGolden(t *testing.T) {
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var buf bytes.Buffer
	for _, spec := range []string{SoftMLEngine, DistAdviceEngine} {
		eng, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, lambda := range []float64{0, 0.25, 0.6, 1} {
			for _, rg := range advisedGoldenRegimes {
				st, err := Prepare(eng, rg.stats, map[string]float64{"lambda": lambda})
				if err != nil {
					t.Fatal(err)
				}
				d := st.Describe()
				fmt.Fprintf(&buf, "%s lambda=%g %s%v bound=%s describe=%s/%s/%s/%s\n",
					Spec(eng), lambda, rg.vertex, rg.stats, bits(st.(Bounded).WorstCaseCRBound()),
					d.Choice, bits(d.ThresholdSec), bits(d.WorstCaseCost), bits(d.WorstCaseCR))
				fmt.Fprintf(&buf, "  explain %s\n", st.Explain())
				adv := st.(Advised)
				for i, p := range predictionPanel(rg.stats.B) {
					for seed := uint64(1); seed <= 5; seed++ {
						dec := adv.DecideAdvised(testRNG(seed), p)
						fmt.Fprintf(&buf, "  pred=%d seed=%d %s %s %s %s\n", i, seed,
							dec.Choice, bits(dec.ThresholdSec), bits(dec.WorstCaseCost), bits(dec.WorstCaseCR))
					}
				}
			}
		}
	}
	const path = "testdata/advised_golden.txt"
	if *updateAdvisedGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (re-record with -update-advised-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("advised decisions diverged from %s", path)
	}
}
