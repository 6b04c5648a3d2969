package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"idlereduce/internal/obs"
)

func TestMapPreservesInputOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		out, err := Map(context.Background(), "t", 100, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestForEachRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		counts := make([]atomic.Int64, 50)
		err := ForEach(context.Background(), "t", 50, workers, func(_ context.Context, i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(context.Background(), "t", 10_000, workers, func(ctx context.Context, i int) error {
			ran.Add(1)
			switch {
			case i == 3:
				return boom
			case i > 3:
				// Hold each later item until the error cancels the pool,
				// so the count below does not depend on how fast the
				// other workers drain the range.
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Second):
					t.Errorf("workers=%d: item %d never saw the pool cancelled", workers, i)
				}
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		// Items 0–3 run; each worker can have claimed at most one more
		// before the cancel lands.
		if n := ran.Load(); n > int64(4+workers) {
			t.Errorf("workers=%d: error did not cancel remaining items (ran %d)", workers, n)
		}
	}
}

func TestForEachErrorCarriesItemIndex(t *testing.T) {
	err := ForEach(context.Background(), "mypool", 5, 1, func(_ context.Context, i int) error {
		if i == 2 {
			return fmt.Errorf("bad item")
		}
		return nil
	})
	if err == nil || err.Error() != "parallel: pool mypool: item 2: bad item" {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), "p", 20, workers, func(_ context.Context, i int) error {
			if i == 7 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 7 || pe.Value != "kaboom" || pe.Pool != "p" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error %+v", workers, pe)
		}
	}
}

func TestForEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, "t", 100, 4, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachCancellationIsPrompt(t *testing.T) {
	// A slow item stream with a mid-run cancel must return without
	// draining the remaining items.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	go func() {
		for ran.Load() < 8 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	err := ForEach(ctx, "t", 1_000_000, 4, func(ctx context.Context, i int) error {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Errorf("cancel did not stop the pool (ran %d)", n)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), "t", 0, 4, func(_ context.Context, i int) error {
		t.Fatal("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	out, err := Map(context.Background(), "t", 0, 4, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(3)
	defer SetDefaultWorkers(0)
	if got := Workers(0); got != 3 {
		t.Errorf("Workers(0) with default 3 = %d", got)
	}
	if got := Workers(-1); got != 3 {
		t.Errorf("Workers(-1) with default 3 = %d", got)
	}
	SetDefaultWorkers(0)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) after reset = %d", got)
	}
}

func TestPoolMetricsPublished(t *testing.T) {
	rec := obs.NewRecorder("pool-test", nil, nil)
	ctx := obs.WithRecorder(context.Background(), rec)
	if err := ForEach(ctx, "unit", 32, 4, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	if got := reg.Counter(obs.L("pool_tasks_total", "pool", "unit")).Value(); got != 32 {
		t.Errorf("pool_tasks_total = %d, want 32", got)
	}
	if got := reg.Gauge(obs.L("pool_workers", "pool", "unit")).Value(); got != 4 {
		t.Errorf("pool_workers = %v, want 4", got)
	}
	if got := reg.Histogram(obs.L("pool_queue_depth", "pool", "unit")).Count(); got != 32 {
		t.Errorf("pool_queue_depth count = %d, want 32", got)
	}
}

// TestPoolSeriesResolvedOncePerRegistry: a pool's series are resolved
// once per (registry, pool name), so a call with a recorder allocates
// no more than one without, and each registry still gets its own
// series with the same values.
func TestPoolSeriesResolvedOncePerRegistry(t *testing.T) {
	noop := func(context.Context, int) error { return nil }
	recA, recB := obs.NewRecorder("a", nil, nil), obs.NewRecorder("b", nil, nil)
	ctxA, ctxB := obs.WithRecorder(context.Background(), recA), obs.WithRecorder(context.Background(), recB)
	if err := ForEach(ctxA, "unit", 4, 1, noop); err != nil {
		t.Fatal(err)
	}
	with := testing.AllocsPerRun(100, func() { _ = ForEach(ctxA, "unit", 4, 1, noop) })
	without := testing.AllocsPerRun(100, func() { _ = ForEach(context.Background(), "unit", 4, 1, noop) })
	if with > without {
		t.Errorf("ForEach allocates %v times with a recorder, %v without: labels formatted per call", with, without)
	}
	if err := ForEach(ctxB, "unit", 3, 1, noop); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun makes one warm-up call before its 100 runs.
	if got := recA.Registry().Counter(obs.L("pool_tasks_total", "pool", "unit")).Value(); got != 4*102 {
		t.Errorf("registry a pool_tasks_total = %d, want %d", got, 4*102)
	}
	if got := recB.Registry().Counter(obs.L("pool_tasks_total", "pool", "unit")).Value(); got != 3 {
		t.Errorf("registry b pool_tasks_total = %d, want 3", got)
	}
	if got := recB.Registry().Gauge(obs.L("pool_workers", "pool", "unit")).Value(); got != 1 {
		t.Errorf("registry b pool_workers = %v, want 1", got)
	}
}

func TestMapResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	// The headline guarantee at engine level: RNG-bearing work merged
	// by Map is invariant to the worker count because every item draws
	// from its own derived stream.
	run := func(workers int) []float64 {
		out, err := Map(context.Background(), "det", 500, workers, func(_ context.Context, i int) (float64, error) {
			rng := RNG(42, uint64(i))
			return rng.Float64() + rng.Float64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: item %d differs: %v vs %v", workers, i, got[i], base[i])
			}
		}
	}
}
