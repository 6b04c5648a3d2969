package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func decodeSpans(t *testing.T, buf *bytes.Buffer) []SpanRecord {
	t.Helper()
	var out []SpanRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

func TestTracerEmitsSpanRecords(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLWriter(&buf, 16))
	sp := tr.Start("http_request", "req-1")
	sp.SetString("route", "decide")
	child := sp.Child("decide_item")
	child.SetInt("index", 3)
	child.End()
	sp.SetInt("code", 200)
	sp.End()
	sp.End() // idempotent
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	recs := decodeSpans(t, &buf)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (child then parent)", len(recs))
	}
	if recs[0].Span != "decide_item" || recs[0].RequestID != "req-1" {
		t.Errorf("child record = %+v", recs[0])
	}
	if recs[0].Attrs["index"] != float64(3) {
		t.Errorf("child attrs = %v", recs[0].Attrs)
	}
	if recs[1].Span != "http_request" || recs[1].RequestID != "req-1" {
		t.Errorf("parent record = %+v", recs[1])
	}
	if recs[1].Attrs["route"] != "decide" || recs[1].Attrs["code"] != float64(200) {
		t.Errorf("parent attrs = %v", recs[1].Attrs)
	}
	if recs[1].DurMS < 0 {
		t.Errorf("negative duration %v", recs[1].DurMS)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "r")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.SetInt("k", 1)
	sp.End()
	if c := sp.Child("y"); c != nil {
		t.Error("nil span Child returned non-nil")
	}
	if tr.Dropped() != 0 || tr.Flush() != nil || tr.Close() != nil {
		t.Error("nil tracer methods not inert")
	}
	if NewTracer(nil) != nil {
		t.Error("NewTracer(nil) should be the no-op tracer")
	}
}

func TestSpanSetAfterEndIgnored(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLWriter(&buf, 4))
	sp := tr.Start("s", "r")
	sp.End()
	sp.SetBool("late", true)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeSpans(t, &buf)
	if len(recs) != 1 || recs[0].Attrs != nil {
		t.Errorf("late Set leaked into record: %+v", recs)
	}
}
