package predict

import (
	"math"
	"testing"
)

// FuzzAdvise checks both advice rules on every input a served engine
// can hand them: a finite break-even b > 0, a fallback draw xc in
// [0, b], lambda in [0, 1] and a prediction that passes Validate. Each
// threshold is finite, in [0, b] and inside Reach(xc, b); a point
// forecast of a long stop (>= b) never raises the threshold above xc,
// and one of a short stop never lowers it. The softml blend rounds, so
// Reach and xc are held to within a few ulps of b.
func FuzzAdvise(f *testing.F) {
	f.Add(28.0, 28.0, 0.5, 400.0, 1.0, 0.0, 0.0, false)
	f.Add(28.0, 16.3, 0.25, 3.0, 0.8, 0.0, 0.0, false)
	f.Add(28.0, 6.83, 0.25, 30.0, 1.0, 30.0, 1100.0, true)
	f.Add(28.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, false)
	f.Add(28.0, 14.0, 0.3, 1e154, 1.0, 0.0, 0.0, false)
	f.Add(5e-324, 5e-324, 0.3, 1e-300, 0.7, 0.0, 0.0, false)
	f.Add(math.MaxFloat64, math.MaxFloat64, 0.9, 1e154, 1.0, 1e150, 1e300, true)
	f.Fuzz(func(t *testing.T, b, xc, lambda, stop, conf, m1, m2 float64, hasMoments bool) {
		p := Prediction{StopSec: stop, Confidence: conf, M1: m1, M2: m2, HasMoments: hasMoments}
		if !(b > 0) || math.IsInf(b, 0) || !(xc >= 0 && xc <= b) || !(lambda >= 0 && lambda <= 1) || p.Validate() != nil {
			return
		}
		slack := 4 * (b - math.Nextafter(b, 0))
		for _, r := range []Rule{{Kind: KindSoftML, Lambda: lambda}, {Kind: KindDistAdvice, Lambda: lambda}} {
			x := r.Advise(b, xc, p).Threshold
			if math.IsNaN(x) || x < 0 || x > b {
				t.Fatalf("%v %+v b=%v xc=%v: threshold %v outside [0, b]", r, p, b, xc, x)
			}
			if lo, hi := r.Reach(xc, b); x < lo-slack || x > hi+slack {
				t.Fatalf("%v %+v b=%v xc=%v: threshold %v outside Reach [%v, %v]", r, p, b, xc, x, lo, hi)
			}
			if r.Kind == KindDistAdvice && hasMoments {
				continue // the moments, not the point forecast, drive it
			}
			if stop >= b && x > xc+slack {
				t.Fatalf("%v %+v b=%v: long forecast raised the threshold %v above xc=%v", r, p, b, x, xc)
			}
			if stop < b && x < xc-slack {
				t.Fatalf("%v %+v b=%v: short forecast lowered the threshold %v below xc=%v", r, p, b, x, xc)
			}
		}
	})
}
