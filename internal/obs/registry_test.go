package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLFormatting(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{L("plain"), "plain"},
		{L("m", "k", "v"), `m{k="v"}`},
		{L("m", "a", "1", "b", "2"), `m{a="1",b="2"}`},
		{L("m", "dangling"), "m"},
		// Values quote exactly as fmt's %q does, escapes included.
		{L("m", "k", "a\"b\\c\n\x00é\u2028"), fmt.Sprintf("m{k=%q}", "a\"b\\c\n\x00é\u2028")},
		// Longer than the stack buffer.
		{L(strings.Repeat("n", 100), "key", strings.Repeat("v", 100)),
			fmt.Sprintf("%s{key=%q}", strings.Repeat("n", 100), strings.Repeat("v", 100))},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q want %q", c.got, c.want)
		}
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter %d want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("counter not memoized")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge %v want 1.5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	// 1..1000: quantiles should land within the bucket relative error.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	for _, c := range []struct {
		q, want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got := h.Quantile(c.q)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.08 {
			t.Errorf("p%v = %v want ~%v (rel err %.3f)", c.q*100, got, c.want, rel)
		}
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v want min 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("q1 = %v want max 1000", got)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	h.buckets = map[int]uint64{}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	if h.Count() != 0 {
		t.Error("non-finite observations must be dropped")
	}
	// All-zero observations report 0 at every quantile.
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("zero-only p50 = %v", got)
	}
	if got := h.Sum(); got != 0 {
		t.Errorf("sum %v", got)
	}
}

// TestHistogramSumSaturates: a running sum past float64's range reads
// as its largest finite magnitude, so the JSON snapshot still encodes.
func TestHistogramSumSaturates(t *testing.T) {
	r := NewRegistry()
	up, down := r.Histogram("up"), r.Histogram("down")
	for i := 0; i < 3; i++ {
		up.Observe(1e308)
		down.Observe(-1e308)
	}
	if up.Sum() != math.MaxFloat64 || down.Sum() != -math.MaxFloat64 {
		t.Errorf("sums %v, %v, want ±MaxFloat64", up.Sum(), down.Sum())
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Errorf("snapshot does not encode: %v", err)
	}
}

// TestRegistryConcurrentWriters hammers one registry from many
// goroutines; run with -race (the Makefile check target does).
func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared_total").Inc()
				r.Gauge("shared_gauge").Add(1)
				r.Histogram("shared_hist").Observe(float64(i%100) + 1)
				if i%100 == 0 {
					// Exercise create paths concurrently too.
					r.Counter(L("per_worker_total", "w", string(rune('a'+w)))).Inc()
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*perWorker {
		t.Errorf("counter %d want %d", got, workers*perWorker)
	}
	if got := r.Gauge("shared_gauge").Value(); got != workers*perWorker {
		t.Errorf("gauge %v want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared_hist").Count(); got != workers*perWorker {
		t.Errorf("hist count %d want %d", got, workers*perWorker)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(L("stops_total", "area", "chicago")).Add(7)
	r.Gauge("cr").Set(1.25)
	for i := 1; i <= 100; i++ {
		r.Histogram("cents").Observe(float64(i))
	}
	s := r.Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 7 {
		t.Errorf("counters %+v", back.Counters)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 100 {
		t.Errorf("histograms %+v", back.Histograms)
	}
	if back.Histograms[0].P99 < back.Histograms[0].P50 {
		t.Error("quantiles out of order")
	}
}

func TestSnapshotPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(L("stops_total", "area", "chicago")).Add(3)
	r.Gauge("cr").Set(1.5)
	r.Histogram("cents").Observe(10)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"# TYPE stops_total counter",
		`stops_total{area="chicago"} 3`,
		"# TYPE cr gauge",
		"cr 1.5",
		"# TYPE cents summary",
		`cents{quantile="0.5"}`,
		"cents_sum 10",
		"cents_count 1",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("prometheus output missing %q:\n%s", frag, out)
		}
	}
}

func TestPrometheusLabelMerging(t *testing.T) {
	if got := string(appendWithLabel(nil, `h{a="b"}`, "quantile", "0.5")); got != `h{a="b",quantile="0.5"}` {
		t.Errorf("appendWithLabel: %q", got)
	}
	if got := string(appendSuffixed(nil, `h{a="b"}`, "_sum")); got != `h_sum{a="b"}` {
		t.Errorf("appendSuffixed: %q", got)
	}
	if got := baseName(`h{a="b"}`); got != "h" {
		t.Errorf("baseName: %q", got)
	}
}

// TestLAllocatesOnlyItsResult pins obs.L's cost: the returned string
// is its one allocation.
func TestLAllocatesOnlyItsResult(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		_ = L("decide_area_total", "area", "chicago", "engine", "constrained@v1")
	})
	if allocs != 1 {
		t.Errorf("L allocates %v times per call, want 1", allocs)
	}
}

// TestSumCounterValuesMatchesSnapshot checks the family index against
// the snapshot's name scan for every base: labelled families, bare
// names, a bare name sharing a labelled family, and a base that is a
// prefix of another.
func TestSumCounterValuesMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter(L("http_requests_total", "route", "decide", "code", "200")).Add(5)
	r.Counter(L("http_requests_total", "route", "batch", "code", "200")).Add(7)
	r.Counter(L("http_requests_total", "route", "decide", "code", "429")).Add(2)
	r.Counter("http_requests_totally_different").Add(100)
	r.Counter(L("http_requests_totally_different", "k", "v")).Add(1000)
	r.Counter("http_requests").Add(10000)
	r.Counter("observe_total").Add(3)
	r.Counter(L("observe_total", "area", "chicago")).Add(4)
	r.Counter("untouched_total")
	for i := 0; i < 50; i++ {
		r.Counter(L("decide_area_total", "area", fmt.Sprintf("a%03d", i))).Add(int64(i))
	}
	r.Gauge("http_requests_total_gauge").Set(1e6)
	r.Histogram(L("http_requests_total", "route", "decide")).Observe(1e6)
	snap := r.Snapshot()
	for _, base := range []string{
		"http_requests_total", "http_requests_totally_different", "http_requests",
		"observe_total", "untouched_total", "decide_area_total", "http_requests_total_gauge",
		"absent_total", "",
	} {
		if got, want := r.SumCounterValues(base), snap.SumCounters(base); got != want {
			t.Errorf("SumCounterValues(%q) = %d, snapshot sums %d", base, got, want)
		}
	}
	if got := r.SumCounterValues("http_requests_total"); got != 14 {
		t.Errorf("http_requests_total sum = %d, want 14 (prefix collision leaked in?)", got)
	}
}

// TestSumCounterValuesConcurrentCreate sums families while other
// goroutines create and bump counters in them; run with -race. Sums
// only grow, and the last one is exact.
func TestSumCounterValuesConcurrentCreate(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	sumDone := make(chan struct{})
	go func() {
		defer close(sumDone)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := r.SumCounterValues("created_total")
			if got < last {
				t.Errorf("family sum went back: %d after %d", got, last)
				return
			}
			last = got
		}
	}()
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter(L("created_total", "w", fmt.Sprint(w), "i", fmt.Sprint(i))).Inc()
				r.Counter(L("other_total", "w", fmt.Sprint(w))).Inc()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-sumDone
	if got := r.SumCounterValues("created_total"); got != writers*perWriter {
		t.Errorf("created_total sum = %d, want %d", got, writers*perWriter)
	}
	if got := r.SumCounterValues("other_total"); got != writers*perWriter {
		t.Errorf("other_total sum = %d, want %d", got, writers*perWriter)
	}
}

// BenchmarkSumCounterValues sums a three-counter family beside n
// unrelated per-area counters: the cost must not grow with n.
func BenchmarkSumCounterValues(b *testing.B) {
	for _, n := range []int{3, 100000} {
		b.Run(fmt.Sprintf("areas=%d", n), func(b *testing.B) {
			r := NewRegistry()
			for _, choice := range []string{"DET", "TOI", "N-Rand"} {
				r.Counter(L("decide_total", "choice", choice)).Inc()
			}
			for i := 0; i < n; i++ {
				r.Counter(L("decide_area_total", "area", fmt.Sprintf("area-%06d", i))).Inc()
			}
			b.ResetTimer()
			var sum int64
			for i := 0; i < b.N; i++ {
				sum += r.SumCounterValues("decide_total")
			}
			if sum != 3*int64(b.N) {
				b.Fatalf("sum %d, want %d", sum, 3*b.N)
			}
		})
	}
}

// BenchmarkL is the cost of formatting one labelled metric name.
func BenchmarkL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = L("decide_area_total", "area", "chicago")
	}
}

// TestRegistryAttached: one value per (owner, key) and registry, built
// once and returned on every later call.
func TestRegistryAttached(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	builds := 0
	mk := func() any { builds++; return new(int) }
	first := a.Attached("pkg", "k", mk)
	if again := a.Attached("pkg", "k", mk); again != first || builds != 1 {
		t.Errorf("second Attached = %p after %d builds, want %p after 1", again, builds, first)
	}
	if other := a.Attached("other", "k", mk); other == first {
		t.Error("owners share one key's value")
	}
	if other := b.Attached("pkg", "k", mk); other == first {
		t.Error("registries share one key's value")
	}
	if builds != 3 {
		t.Errorf("%d builds, want 3", builds)
	}
}

// TestRegistryAttachedConcurrent: goroutines racing on a key's first
// use all get the one value, built once.
func TestRegistryAttachedConcurrent(t *testing.T) {
	r := NewRegistry()
	var builds atomic.Int64
	const n = 16
	got := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			got[i] = r.Attached("pkg", "pool", func() any { builds.Add(1); return new(int) })
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got %p, goroutine 0 %p", i, got[i], got[0])
		}
	}
	if b := builds.Load(); b != 1 {
		t.Errorf("%d builds, want 1", b)
	}
}
