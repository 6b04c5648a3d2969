// Package parallel is the repo's deterministic parallel execution
// engine: a context-aware, bounded worker pool over index ranges plus a
// counter-based seed-derivation scheme, built so that every fan-out site
// (per-vehicle fleet generation, the (mu, q) strategy-region grid, the
// break-even and traffic sweeps, per-vehicle CR evaluation) produces
// byte-identical results for any worker count.
//
// The determinism contract has two halves:
//
//  1. Scheduling independence. ForEach and Map hand out item indices
//     from an atomic counter, but every result is merged back in input
//     order (Map writes out[i]; callers of ForEach write into
//     preallocated slots). No reduction ever observes completion order.
//
//  2. Stream independence. Work items that need randomness must not
//     share an RNG — the interleaving of draws would then depend on
//     scheduling. Instead each item derives its own stream with
//     DeriveSeed(root, streamID), a SplitMix64-style mix that is
//     bijective in the stream ID, so streams never collide and item i's
//     randomness depends only on (root, i), never on which worker ran it
//     or when.
//
// Pools publish throughput and queue-depth metrics through an
// obs.Recorder carried in the context (no-op without one): see
// docs/PARALLELISM.md and docs/OBSERVABILITY.md.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"idlereduce/internal/obs"
)

// defaultWorkers holds the process-wide default worker count used when a
// call site passes workers <= 0. Zero means runtime.GOMAXPROCS(0). The
// CLIs set it from their -workers flag.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count used when
// a call passes workers <= 0. n <= 0 restores the GOMAXPROCS default.
// Changing the default never changes results — only scheduling.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers resolves a requested worker count: n > 0 is returned as is;
// otherwise the process default (SetDefaultWorkers), falling back to
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if d := int(defaultWorkers.Load()); d > 0 {
		return d
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a panic recovered from a work item so the pool can
// return it as an ordinary error instead of crashing sibling workers.
type PanicError struct {
	// Pool is the pool name the panic occurred in.
	Pool string
	// Index is the work-item index whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: pool %s: item %d panicked: %v", e.Pool, e.Index, e.Value)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded pool of
// workers (workers <= 0 means Workers(0)). The first error cancels the
// remaining items and is returned; panics inside fn are captured as
// *PanicError. fn must be safe for concurrent invocation across distinct
// indices. ctx cancellation is checked between items, so a cancelled
// ForEach returns promptly with ctx's error.
//
// When ctx carries an obs.Recorder, the pool publishes
// pool_tasks_total{pool=name}, pool_workers{pool=name},
// pool_tasks_per_sec{pool=name} and a pool_queue_depth{pool=name}
// histogram sampled at each task start.
func ForEach(ctx context.Context, name string, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	rec := obs.FromContext(ctx)
	var m *poolSeries
	var t0 time.Time
	var done atomic.Int64
	if rec.On() {
		m = poolSeriesOf(rec.Registry(), name)
		t0 = time.Now()
		m.workers.Get(func() *obs.Gauge { return m.reg.Gauge(m.label("pool_workers")) }).Set(float64(workers))
		defer func() {
			completed := done.Load()
			m.tasks.Get(func() *obs.Counter { return m.reg.Counter(m.label("pool_tasks_total")) }).Add(completed)
			if dt := time.Since(t0).Seconds(); dt > 0 {
				m.rate.Get(func() *obs.Gauge { return m.reg.Gauge(m.label("pool_tasks_per_sec")) }).Set(float64(completed) / dt)
			}
		}()
	}

	runItem := func(ctx context.Context, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Pool: name, Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		if m != nil {
			m.depth.Get(func() *obs.Histogram { return m.reg.Histogram(m.label("pool_queue_depth")) }).Observe(float64(n - i - 1))
		}
		if err := fn(ctx, i); err != nil {
			return fmt.Errorf("parallel: pool %s: item %d: %w", name, i, err)
		}
		done.Add(1)
		return nil
	}

	if workers <= 1 {
		// Serial fast path: same item order, same per-item ctx checks.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runItem(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := wctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := runItem(wctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Prefer the parent context's error over the derived cancellation it
	// triggered, so callers see context.Canceled / DeadlineExceeded.
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// poolSeries are one pool's four series in one registry. Each is
// created on its first use, exactly when the by-name call created it,
// and then served from here, so a pool formats its labels once per
// registry instead of on every call.
type poolSeries struct {
	reg           *obs.Registry
	name          string
	workers, rate obs.Lazy[obs.Gauge]
	tasks         obs.Lazy[obs.Counter]
	depth         obs.Lazy[obs.Histogram]
}

// poolSeriesOf returns the series of pool name in reg.
func poolSeriesOf(reg *obs.Registry, name string) *poolSeries {
	return reg.Attached("parallel", name, func() any { return &poolSeries{reg: reg, name: name} }).(*poolSeries)
}

// label names the pool's series of one family, family{pool=name}.
func (m *poolSeries) label(family string) string { return obs.L(family, "pool", m.name) }

// Map runs fn(ctx, i) for every i in [0, n) on a bounded pool and
// returns the results in input order, invariant to the worker count. It
// shares ForEach's cancellation, panic-capture and metrics behavior; on
// error the partial results are discarded.
func Map[T any](ctx context.Context, name string, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := ForEach(ctx, name, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
