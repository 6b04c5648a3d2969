package main

import (
	"slices"
	"testing"
	"time"
)

func TestLowSteal(t *testing.T) {
	for _, c := range []struct {
		name  string
		slots []int
		steal []float64 // by slot; slot 0 is the warm-up
		want  []int
	}{
		{"all quiet", []int{1, 2, 3}, []float64{0.5, 0, 0.01, 0.002}, []int{1, 2, 3}},
		{"half quiet", []int{1, 2, 3, 4}, []float64{0, 0.2, 0.005, 0.3, 0.01}, []int{2, 4}},
		{"too few quiet: least-steal half", []int{1, 2, 3, 4, 5}, []float64{0, 0.05, 0.02, 0.009, 0.04, 0.03}, []int{2, 3, 5}},
		{"ties keep slot order", []int{1, 2, 3, 4}, []float64{0, 0.02, 0.02, 0.02, 0.02}, []int{1, 2}},
		{"a later phase", []int{3, 4}, []float64{0, 0, 0, 0.03, 0.02}, []int{4}},
	} {
		if got := lowSteal(c.slots, c.steal); !slices.Equal(got, c.want) {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
}

func TestWindowSlot(t *testing.T) {
	now := time.Unix(1000, 0)
	w := newWindow(now, time.Second, 2, true)
	if len(w.bounds) != 9 || w.split != 4 {
		t.Fatalf("2 s traced: %d bounds, split %d; want 9 bounds, split 4", len(w.bounds), w.split)
	}
	for _, c := range []struct {
		at   time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Millisecond, 0},
		{time.Second, 1},
		{1249 * time.Millisecond, 1},
		{1250 * time.Millisecond, 2},
		{2999 * time.Millisecond, 8},
		{3 * time.Second, -1},
	} {
		if got := w.slot(now.Add(c.at)); got != c.want {
			t.Errorf("slot at %v: got %d want %d", c.at, got, c.want)
		}
	}
	if got := w.phase(4); got != 1 {
		t.Errorf("phase(4) = %d, want 1", got)
	}
	if got := w.phase(5); got != 2 {
		t.Errorf("phase(5) = %d, want 2", got)
	}
}
