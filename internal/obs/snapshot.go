package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is a point-in-time export of a registry, the unit the CLIs
// dump (JSON) and `idlectl stats` renders. Field order is stable and
// names are sorted, so snapshots diff cleanly across runs.
type Snapshot struct {
	// RunID labels the run that produced the snapshot (optional).
	RunID string `json:"run_id,omitempty"`
	// TakenAtUnixMs is the wall-clock capture time.
	TakenAtUnixMs int64 `json:"taken_at_unix_ms"`
	// Counters, Gauges and Histograms are sorted by name.
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// CounterSnapshot is one counter's value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge's value.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramSnapshot summarizes one histogram.
type HistogramSnapshot struct {
	Name  string  `json:"name"`
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot captures every metric currently in the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{TakenAtUnixMs: time.Now().UnixMilli()}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	for k, v := range counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: k, Value: v.Value()})
	}
	for k, v := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: k, Value: v.Value()})
	}
	for k, v := range hists {
		s.Histograms = append(s.Histograms, v.snapshot(k))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// CounterValue looks up a counter by exact (labelled) name.
func (s Snapshot) CounterValue(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// GaugeValue looks up a gauge by exact (labelled) name.
func (s Snapshot) GaugeValue(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// HistogramValue looks up a histogram summary by exact (labelled) name.
func (s Snapshot) HistogramValue(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// TopHistograms returns the k histograms whose base name (label block
// stripped) matches base, ordered by total observed time (Sum)
// descending — the attribution view: "which label owns the most
// latency". Ties break by name so the order is deterministic.
func (s Snapshot) TopHistograms(base string, k int) []HistogramSnapshot {
	var out []HistogramSnapshot
	for _, h := range s.Histograms {
		if baseName(h.Name) == base {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sum != out[j].Sum {
			return out[i].Sum > out[j].Sum
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// LabelValue extracts one label's value from a formatted metric name:
// LabelValue(`decide_area_ms{area="chicago"}`, "area") == "chicago".
// The second return is false when the label is absent.
func LabelValue(name, key string) (string, bool) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return "", false
	}
	block := strings.TrimSuffix(name[i+1:], "}")
	for _, pair := range strings.Split(block, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k != key {
			continue
		}
		if uq, err := strconv.Unquote(v); err == nil {
			return uq, true
		}
		return v, true
	}
	return "", false
}

// SumCounters totals every counter whose base name (label block
// stripped) matches base — e.g. SumCounters("http_requests_total")
// across all route/code label combinations.
func (s Snapshot) SumCounters(base string) int64 {
	var total int64
	for _, c := range s.Counters {
		if baseName(c.Name) == base {
			total += c.Value
		}
	}
	return total
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return s, nil
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format. Histograms are rendered as summaries (quantile-labelled
// gauges plus _sum and _count). The text streams through a buffered
// writer, line by line, so a scrape of a 100k-series registry holds one
// buffer instead of building its whole body first.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 32<<10)
	var line []byte
	for _, c := range s.Counters {
		line = appendTypeLine(line[:0], c.Name, "counter")
		line = append(line, c.Name...)
		line = append(line, ' ')
		line = strconv.AppendInt(line, c.Value, 10)
		bw.Write(append(line, '\n'))
	}
	for _, g := range s.Gauges {
		line = appendTypeLine(line[:0], g.Name, "gauge")
		line = append(line, g.Name...)
		line = append(line, ' ')
		line = appendFloatV(line, g.Value)
		bw.Write(append(line, '\n'))
	}
	for _, h := range s.Histograms {
		line = appendTypeLine(line[:0], h.Name, "summary")
		for _, qv := range []struct {
			q string
			v float64
		}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
			line = appendWithLabel(line, h.Name, "quantile", qv.q)
			line = append(line, ' ')
			line = appendFloatV(line, qv.v)
			line = append(line, '\n')
		}
		line = appendSuffixed(line, h.Name, "_sum")
		line = append(line, ' ')
		line = appendFloatV(line, h.Sum)
		line = append(line, '\n')
		line = appendSuffixed(line, h.Name, "_count")
		line = append(line, ' ')
		line = strconv.AppendUint(line, h.Count, 10)
		bw.Write(append(line, '\n'))
	}
	return bw.Flush()
}

// appendTypeLine appends the "# TYPE base kind" line of a metric.
func appendTypeLine(b []byte, name, kind string) []byte {
	b = append(b, "# TYPE "...)
	b = append(b, baseName(name)...)
	b = append(b, ' ')
	b = append(b, kind...)
	return append(b, '\n')
}

// appendFloatV appends v as fmt's %v prints a float64: strconv's
// shortest 'g' form, with an explicit sign on +Inf.
func appendFloatV(b []byte, v float64) []byte {
	if math.IsInf(v, 1) {
		return append(b, "+Inf"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// baseName strips the label block from a formatted metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// appendWithLabel appends name with one more label added to its label
// block (opening one when it has none); the value is quoted as %q
// quotes it.
func appendWithLabel(b []byte, name, key, value string) []byte {
	if strings.IndexByte(name, '{') >= 0 {
		b = append(b, name[:len(name)-1]...)
		b = append(b, ',')
	} else {
		b = append(b, name...)
		b = append(b, '{')
	}
	b = append(b, key...)
	b = append(b, '=')
	b = strconv.AppendQuote(b, value)
	return append(b, '}')
}

// appendSuffixed appends name with a suffix on its base name, keeping
// any label block.
func appendSuffixed(b []byte, name, suffix string) []byte {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		i = len(name)
	}
	b = append(b, name[:i]...)
	b = append(b, suffix...)
	return append(b, name[i:]...)
}
