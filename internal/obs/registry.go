package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe collection of named metrics. The zero
// value is not usable; construct with NewRegistry. Metric accessors
// create on first use, so instrumented code never pre-registers.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	// families files every counter under its base name (label block
	// stripped) when it is created, so a family sum reads only that
	// family's counters however many others the registry holds.
	// Slices are only appended to, under mu.
	families map[string][]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// attached holds the values packages attach to the registry (see
	// Attached), under attachMu.
	attachMu sync.RWMutex
	attached map[attachKey]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		families: make(map[string][]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		attached: make(map[attachKey]any),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
		base := baseName(name)
		r.families[base] = append(r.families[base], c)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{buckets: make(map[int]uint64)}
		r.hists[name] = h
	}
	return h
}

// SumCounterValues totals every live counter whose base name (label
// block stripped) matches base. It equals Snapshot().SumCounters(base)
// but reads only the family's counters, so a periodic sampler pays for
// the family it sums, not for the size of the registry.
func (r *Registry) SumCounterValues(base string) int64 {
	r.mu.RLock()
	family := r.families[base]
	r.mu.RUnlock()
	// The slice header was read under the lock, and appends never
	// rewrite the elements it covers, so the walk needs no lock.
	var total int64
	for _, c := range family {
		total += c.Value()
	}
	return total
}

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Add increments by n (negative n is ignored to keep monotonicity).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		val := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histGamma is the geometric bucket growth factor: buckets at gamma^i
// give every quantile a relative error below (gamma-1)/2 ≈ 4%, and the
// whole float range fits in a few hundred sparse buckets.
const histGamma = 1.08

// Histogram is a streaming log-bucketed histogram: constant memory per
// distinct magnitude, quantiles with bounded relative error, safe for
// concurrent Observe.
type Histogram struct {
	mu       sync.Mutex
	count    uint64
	sum      float64
	min, max float64
	zero     uint64         // observations <= 0
	buckets  map[int]uint64 // index i covers (gamma^i, gamma^(i+1)]
}

// bucketIndex maps a positive value to its bucket.
func bucketIndex(v float64) int {
	return int(math.Ceil(math.Log(v)/math.Log(histGamma))) - 1
}

// Observe records one value. NaN and ±Inf are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	// The running sum saturates at float64's largest finite magnitude,
	// so a snapshot stays encodable however large the observations.
	h.sum = math.Max(-math.MaxFloat64, math.Min(h.sum+v, math.MaxFloat64))
	if v <= 0 {
		h.zero++
		return
	}
	h.buckets[bucketIndex(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]); NaN
// when empty. The estimate is the geometric midpoint of the bucket
// holding the rank, clamped to the observed [min, max].
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank <= h.zero {
		// All non-positive observations collapse into one bucket; min is
		// the best point estimate for it.
		return math.Min(h.min, 0)
	}
	seen := h.zero
	idxs := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		seen += h.buckets[i]
		if seen >= rank {
			// Geometric midpoint of (gamma^i, gamma^(i+1)].
			v := math.Pow(histGamma, float64(i)+0.5)
			return math.Min(math.Max(v, h.min), h.max)
		}
	}
	return h.max
}

// snapshotLocked renders the histogram's summary under h.mu.
func (h *Histogram) snapshot(name string) HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Name: name, Count: h.count, Sum: h.sum}
	if h.count > 0 {
		s.Min = h.min
		s.Max = h.max
		s.Mean = h.sum / float64(h.count)
		s.P50 = h.quantileLocked(0.50)
		s.P90 = h.quantileLocked(0.90)
		s.P99 = h.quantileLocked(0.99)
	}
	return s
}
