package main

import (
	"slices"
	"testing"
)

func TestQuantileEdges(t *testing.T) {
	if got := quantileNS(nil, 0.5); got != 0 {
		t.Fatalf("empty: got %d", got)
	}
	if got := quantileNS([]int64{7}, 0.99); got != 7 {
		t.Fatalf("single: got %d", got)
	}
	// Nearest rank: p50 of 1..4 is the 2nd value, p99 the 4th.
	xs := []int64{4, 1, 3, 2}
	if got := quantileNS(slices.Clone(xs), 0.5); got != 2 {
		t.Fatalf("p50: got %d", got)
	}
	if got := quantileNS(slices.Clone(xs), 0.99); got != 4 {
		t.Fatalf("p99: got %d", got)
	}
	// 1..1000 in reverse: the q-quantile is the value ceil(1000·q).
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(len(big) - i)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.001, 1}, {0.5, 500}, {0.99, 990}, {0.9995, 1000}, {1, 1000}} {
		if got := quantileNS(slices.Clone(big), c.q); got != c.want {
			t.Fatalf("1..1000 q=%v: got %d want %d", c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := slices.Clone(c.in)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		if !slices.Equal(in, c.in) {
			t.Errorf("median reordered its input: %v", in)
		}
	}
}
