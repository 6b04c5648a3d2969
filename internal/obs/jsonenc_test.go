package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"
)

// jsonSeedStrings exercise every escape class of encoding/json.
var jsonSeedStrings = []string{
	"", "plain", "chicago", `quote " and \ backslash`, "<b>&amp;</b>",
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "caf\u00e9 \u65e5\u672c",
	"\u2028line\u2029para", "bad \xff utf8 \xc3", "\xed\xa0\x80 surrogate",
	"emoji \U0001F600", "trailing \xe2\x80",
}

// jsonSeedFloats straddle the exponent cut-offs and the e-09 cleanup.
var jsonSeedFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 28, 0.41, 1.5e-7, 1e-6, 9.999999e-7,
	1e20, 1e21, 123456789e15, -1e-9, 5e-324, math.MaxFloat64,
	math.SmallestNonzeroFloat64, 1e-10, 2.5e-100, 1e300,
	999999999999999, 1e15, -1e15, 1 << 53, 4503599627370495.5, 1e15 + 0.5,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// checkString compares AppendJSONString with json.Marshal, appending
// after a prefix so a primitive that ignores dst shows.
func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	got := AppendJSONString([]byte("pre:"), s)
	if string(got) != "pre:"+string(want) {
		t.Fatalf("AppendJSONString(%q) = %s, want %s", s, got[4:], want)
	}
}

// checkFloat compares AppendJSONFloat with json.Marshal, including
// whether both refuse the value.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, werr := json.Marshal(f)
	got, gerr := AppendJSONFloat([]byte("pre:"), f)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("AppendJSONFloat(%v) error %v, json.Marshal error %v", f, gerr, werr)
	}
	if werr == nil && string(got) != "pre:"+string(want) {
		t.Fatalf("AppendJSONFloat(%v) = %s, want %s", f, got[4:], want)
	}
}

// FuzzAppendJSON holds the two primitives to encoding/json's bytes on
// arbitrary strings and float bit patterns.
func FuzzAppendJSON(f *testing.F) {
	for i, s := range jsonSeedStrings {
		f.Add(s, math.Float64bits(jsonSeedFloats[i%len(jsonSeedFloats)]))
	}
	f.Fuzz(func(t *testing.T, s string, bits uint64) {
		checkString(t, s)
		checkFloat(t, math.Float64frombits(bits))
	})
}

func TestAppendJSONPrimitivesMatchMarshal(t *testing.T) {
	for _, s := range jsonSeedStrings {
		checkString(t, s)
	}
	for _, f := range jsonSeedFloats {
		checkFloat(t, f)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		checkFloat(t, math.Float64frombits(rng.Uint64()))
		checkFloat(t, rng.NormFloat64()*math.Pow(10, float64(rng.IntN(60)-30)))
		checkFloat(t, float64(rng.Int64N(1<<55)-1<<54))
		b := make([]byte, rng.IntN(12))
		for j := range b {
			b[j] = byte(rng.UintN(256))
		}
		checkString(t, string(b))
	}
}

// randomAttr sets one random attribute on sp and records the value the
// equivalent SpanRecord map would hold.
func randomAttr(rng *rand.Rand, sp *Span, attrs map[string]any) {
	keys := []string{"area", "b", "choice", "code", "index", "route", "seq", "stream", "warm", "z<&>", "\u2028"}
	k := keys[rng.IntN(len(keys))]
	switch rng.IntN(5) {
	case 0:
		v := jsonSeedStrings[rng.IntN(len(jsonSeedStrings))]
		sp.SetString(k, v)
		attrs[k] = v
	case 1:
		v := int64(rng.Uint64())
		sp.SetInt(k, v)
		attrs[k] = v
	case 2:
		v := rng.Uint64()
		sp.SetUint(k, v)
		attrs[k] = v
	case 3:
		v := jsonSeedFloats[rng.IntN(len(jsonSeedFloats)-3)] // finite seeds
		if rng.IntN(50) == 0 {
			v = math.NaN()
		}
		sp.SetFloat(k, v)
		attrs[k] = v
	case 4:
		v := rng.IntN(2) == 1
		sp.SetBool(k, v)
		attrs[k] = v
	}
}

// TestSpanRecordMatchesMarshal: a span's typed attributes encode to the
// bytes json.Marshal gives the SpanRecord with the same attrs map —
// keys sorted, later sets overwriting, an empty block omitted, and a
// NaN refused by both.
func TestSpanRecordMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 5000; i++ {
		sp := &Span{name: jsonSeedStrings[rng.IntN(len(jsonSeedStrings))], reqID: "req-" + strings.Repeat("7", rng.IntN(3)),
			start: time.UnixMilli(rng.Int64N(1 << 42))}
		attrs := map[string]any{}
		for n := rng.IntN(14); n > 0; n-- {
			randomAttr(rng, sp, attrs)
		}
		if !sp.finish() {
			t.Fatal("fresh span already finished")
		}
		rec := SpanRecord{TSUnixMS: sp.start.UnixMilli(), RequestID: sp.reqID, Span: sp.name, DurMS: sp.durMS, Attrs: attrs}
		want, werr := json.Marshal(rec)
		got, gerr := (*finishedSpan)(sp).AppendJSON([]byte("pre:"))
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("span %+v: error %v, json.Marshal error %v", rec, gerr, werr)
		}
		if werr == nil && !bytes.Equal(got, append([]byte("pre:"), want...)) {
			t.Fatalf("span encodes as\n%s\nwant\n%s", got[4:], want)
		}
	}
}

// TestNaNSpanCountedAsDropped: a span whose record cannot be encoded
// is dropped and counted, not written half-formed.
func TestNaNSpanCountedAsDropped(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLWriter(&buf, 4))
	sp := tr.Start("s", "r")
	sp.SetFloat("b", math.Inf(1))
	sp.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 || tr.Dropped() != 1 {
		t.Errorf("wrote %q, dropped %d; want nothing written, 1 dropped", buf.String(), tr.Dropped())
	}
}

// TestAppendJSONAllocatesNothing: the primitives and a span record
// append into a buffer with room without allocating.
func TestAppendJSONAllocatesNothing(t *testing.T) {
	sp := &Span{name: "http_request", reqID: "6f1f3a9c-0000042", start: time.Now()}
	sp.SetString("route", "decide")
	sp.SetInt("code", 200)
	sp.SetString("area", "chicago")
	sp.SetUint("stats_version", 3)
	sp.SetFloat("b", 28)
	sp.SetString("choice", "N-Rand")
	sp.SetFloat("threshold_sec", 17.25)
	sp.SetUint("stream", 1234567890)
	sp.SetBool("alarm", true)
	sp.SetString("decision_id", "6f1f3a9c-d000001")
	sp.finish()
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		b := AppendJSONString(buf[:0], "caf\u00e9 <b> \xff")
		b, _ = AppendJSONFloat(b, 1.5e-7)
		b, _ = (*finishedSpan)(sp).AppendJSON(b)
		_ = b
	})
	if allocs != 0 {
		t.Errorf("appending allocates %v times, want 0", allocs)
	}
}

// TestSpanSettersConcurrent: batch workers may annotate one span at
// once; every key lands once, and End racing the setters leaves a
// record that still decodes.
func TestSpanSettersConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLWriter(&buf, 4))
	sp := tr.Start("http_request", "r")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp.SetInt(fmt.Sprintf("k%d", i%12), int64(w))
				sp.SetFloat("b", float64(i))
			}
		}(w)
	}
	wg.Wait()
	sp.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeSpans(t, &buf)
	if len(recs) != 1 || len(recs[0].Attrs) != 13 {
		t.Fatalf("records %+v, want one span with 13 attributes", recs)
	}
}
