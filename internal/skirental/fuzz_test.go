package skirental

import (
	"math"
	"testing"
)

// FuzzEstimateStats: estimates from arbitrary float samples must either
// error or produce statistics that validate and build a working policy.
func FuzzEstimateStats(f *testing.F) {
	f.Add(10.0, 50.0, 200.0)
	f.Add(0.0, 0.0, 0.0)
	f.Add(-1.0, 5.0, 5.0)
	f.Add(math.MaxFloat64, 1.0, 2.0)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		stops := []float64{a, b, c}
		s, err := EstimateStats(stops, testB)
		if err != nil {
			return
		}
		if verr := s.Validate(testB); verr != nil {
			t.Fatalf("estimated stats %+v invalid: %v", s, verr)
		}
		p, err := NewConstrained(testB, s)
		if err != nil {
			t.Fatalf("valid stats rejected: %v", err)
		}
		if cr := p.WorstCaseCR(); cr < 1-1e-9 || cr > math.E/(math.E-1)+1e-9 {
			t.Fatalf("worst CR %v out of range", cr)
		}
	})
}

// FuzzOnlineCostInvariant: for every finite non-negative stop and
// threshold and positive finite B, Play's costs are OnlineCost's and
// OfflineCost's bit for bit, the online cost is the idle time plus B
// exactly when the engine restarted, and it is never below the offline
// cost, with no tolerance.
func FuzzOnlineCostInvariant(f *testing.F) {
	f.Add(0.0, 0.0, testB)
	f.Add(28.0, 28.0, testB)
	f.Add(1e300, 5.0, testB)
	f.Add(0.0, 0.0, 5e-324)
	f.Add(1e308, 1e308, 1e308)
	f.Fuzz(func(t *testing.T, x, y, b float64) {
		if math.IsNaN(x) || math.IsNaN(y) || x < 0 || y < 0 || !(b > 0) || math.IsInf(b, 1) {
			return
		}
		s := Play(x, y, b)
		on, off := OnlineCost(x, y, b), OfflineCost(y, b)
		if math.Float64bits(s.Online) != math.Float64bits(on) || math.Float64bits(s.Opt) != math.Float64bits(off) {
			t.Fatalf("Play(%v, %v, %v) = %+v, eq. 3 and eq. 2 give (%v, %v)", x, y, b, s, on, off)
		}
		want := s.Idle
		if s.Restarted {
			want += b
		}
		if math.Float64bits(s.Online) != math.Float64bits(want) {
			t.Fatalf("Play(%v, %v, %v) = %+v: online is not idle + B·restarted", x, y, b, s)
		}
		if math.IsNaN(s.Online) || math.IsNaN(s.Opt) {
			t.Fatalf("NaN cost for x=%v y=%v b=%v", x, y, b)
		}
		if s.Online < s.Opt {
			t.Fatalf("online %v below offline %v (x=%v y=%v b=%v)", s.Online, s.Opt, x, y, b)
		}
	})
}
