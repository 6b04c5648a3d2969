package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// writePrometheusFmt is the renderer WritePrometheus replaced: the
// whole body in a strings.Builder, one fmt.Fprintf per line. It stays
// here as the byte reference of the streaming one.
func writePrometheusFmt(s Snapshot, w io.Writer) error {
	withLabel := func(name, key, value string) string {
		if strings.IndexByte(name, '{') >= 0 {
			return name[:len(name)-1] + fmt.Sprintf(",%s=%q}", key, value)
		}
		return fmt.Sprintf("%s{%s=%q}", name, key, value)
	}
	suffixed := func(name, suffix string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			return name[:i] + suffix + name[i:]
		}
		return name + suffix
	}
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", baseName(c.Name), c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %v\n", baseName(g.Name), g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		base := baseName(h.Name)
		fmt.Fprintf(&b, "# TYPE %s summary\n", base)
		for _, qv := range []struct {
			q string
			v float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			fmt.Fprintf(&b, "%s %v\n", withLabel(h.Name, "quantile", qv.q), qv.v)
		}
		fmt.Fprintf(&b, "%s %v\n", suffixed(h.Name, "_sum"), h.Sum)
		fmt.Fprintf(&b, "%s %d\n", suffixed(h.Name, "_count"), h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// checkPrometheus holds WritePrometheus to the fmt renderer's bytes.
func checkPrometheus(t *testing.T, s Snapshot) {
	t.Helper()
	var got, want bytes.Buffer
	if err := s.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := writePrometheusFmt(s, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WritePrometheus wrote\n%s\nthe fmt renderer\n%s", got.String(), want.String())
	}
}

// TestWritePrometheusMatchesFmtRenderer: bare and labelled counters,
// gauges including NaN, ±Inf and -0, and histograms that gain a
// quantile label, bare and labelled.
func TestWritePrometheusMatchesFmtRenderer(t *testing.T) {
	checkPrometheus(t, Snapshot{
		Counters: []CounterSnapshot{
			{Name: "decide_total", Value: 0},
			{Name: `decide_area_total{area="chicago"}`, Value: 42},
			{Name: `http_requests_total{route="decide",code="200"}`, Value: math.MaxInt64},
			{Name: "neg_total", Value: -3},
		},
		Gauges: []GaugeSnapshot{
			{Name: "g", Value: 0.5},
			{Name: `cr_empirical{area="a b",engine="constrained@v1"}`, Value: 1.0625},
			{Name: "nan", Value: math.NaN()},
			{Name: "pinf", Value: math.Inf(1)},
			{Name: "ninf", Value: math.Inf(-1)},
			{Name: "negzero", Value: math.Copysign(0, -1)},
			{Name: "tiny", Value: 1.5e-7},
			{Name: "big", Value: 1e21},
			{Name: "six", Value: 123456},
			{Name: "seven", Value: 1234567},
			{Name: "max", Value: math.MaxFloat64},
			{Name: "min", Value: 5e-324},
		},
		Histograms: []HistogramSnapshot{
			{Name: "http_request_ms", Count: 3, Sum: 1.25, P50: 0.41, P90: 0.9, P99: 1e-5},
			{Name: `decide_area_ms{area="chicago"}`, Count: 1, Sum: math.Inf(1), P50: math.NaN(), P90: 0, P99: 2.5e22},
		},
	})
	checkPrometheus(t, Snapshot{})
}

// TestWritePrometheusRandomSnapshots sweeps random names and values,
// including the float bit patterns fmt and strconv could disagree on.
func TestWritePrometheusRandomSnapshots(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	name := func() string {
		n := []string{"m", "pool_queue_depth", "x_total"}[rng.IntN(3)]
		if rng.IntN(2) == 0 {
			n = L(n, "area", fmt.Sprintf("a%d\"\\", rng.IntN(100)), "engine", "softml@v1")
		}
		return n
	}
	value := func() float64 {
		if rng.IntN(3) == 0 {
			return math.Float64frombits(rng.Uint64())
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(40)-20))
	}
	for i := 0; i < 300; i++ {
		var s Snapshot
		for n := rng.IntN(5); n > 0; n-- {
			s.Counters = append(s.Counters, CounterSnapshot{Name: name(), Value: int64(rng.Uint64())})
			s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name(), Value: value()})
			s.Histograms = append(s.Histograms, HistogramSnapshot{Name: name(), Count: rng.Uint64(),
				Sum: value(), P50: value(), P90: value(), P99: value()})
		}
		checkPrometheus(t, s)
	}
}

// promSnapshot100k is a snapshot shaped like a 100k-area daemon's
// after one decide per area: a labelled counter and histogram per
// area.
func promSnapshot100k() Snapshot {
	var s Snapshot
	for i := 0; i < 100_000; i++ {
		area := fmt.Sprintf("area-%06d", i)
		s.Counters = append(s.Counters, CounterSnapshot{Name: L("decide_area_total", "area", area), Value: 1})
		s.Histograms = append(s.Histograms, HistogramSnapshot{Name: L("decide_area_ms", "area", area),
			Count: 1, Sum: 0.0123, P50: 0.0123, P90: 0.0123, P99: 0.0123})
	}
	return s
}

// BenchmarkWritePrometheus100k renders 200k series (a counter and a
// summary per area of a 100k-area daemon), reporting the bytes the
// renderer allocates per scrape beside the body it writes.
func BenchmarkWritePrometheus100k(b *testing.B) {
	s := promSnapshot100k()
	var n countingWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WritePrometheus(&n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)/float64(b.N)/(1<<20), "body_MB")
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
