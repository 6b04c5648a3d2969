package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestJSONLWriterWritesLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONLWriter(&buf, 16)
	for i := 0; i < 5; i++ {
		j.Write(map[string]int{"i": i})
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var m map[string]int
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		if m["i"] != i {
			t.Errorf("line %d = %v, want i=%d (order must be preserved)", i, m, i)
		}
	}
	if j.Written() != 5 || j.Dropped() != 0 {
		t.Errorf("written %d dropped %d, want 5/0", j.Written(), j.Dropped())
	}
}

// blockingWriter blocks every Write until released, so the queue can
// be filled deterministically.
type blockingWriter struct {
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	buf     bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.entered <- struct{}{}
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestJSONLWriterLossyWhenFull(t *testing.T) {
	bw := &blockingWriter{entered: make(chan struct{}, 64), release: make(chan struct{})}
	j := NewJSONLWriter(bw, 2)
	j.Write("a") // picked up by the goroutine, blocks in Write
	<-bw.entered
	j.Write("b") // queued
	j.Write("c") // queued (capacity 2)
	j.Write("d") // dropped
	j.Write("e") // dropped
	if got := j.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	close(bw.release)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := j.Written(); got != 3 {
		t.Errorf("Written = %d, want 3", got)
	}
}

func TestJSONLWriterFlushAndWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	j := NewJSONLWriter(w, 16)
	j.Write("x")
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != `"x"` {
		t.Errorf("after Flush buffer = %q, want \"x\" flushed through bufio", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	j.Write("y")
	if err := j.Flush(); err != nil {
		t.Fatalf("Flush after Close: %v", err)
	}
	if j.Dropped() != 1 {
		t.Errorf("write after close not counted dropped: %d", j.Dropped())
	}
	var nilJ *JSONLWriter
	nilJ.Write("z")
	if err := nilJ.Flush(); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
	if err := nilJ.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestJSONLWriterUnmarshalableDropped(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONLWriter(&buf, 4)
	j.Write(func() {}) // not JSON-marshalable
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Dropped() != 1 || j.Written() != 0 {
		t.Errorf("dropped %d written %d, want 1/0", j.Dropped(), j.Written())
	}
}

func TestRotatingFileRotatesBySize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.jsonl")
	rf, err := OpenRotatingFile(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(fmt.Sprintf("%s\n", strings.Repeat("x", 39))) // 40 bytes
	for i := 0; i < 5; i++ {                                     // 200 bytes total
		if _, err := rf.Write(line); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	if rot := rf.Rotations(); rot != 2 {
		t.Errorf("Rotations = %d, want 2", rot)
	}
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatalf("rotated file missing: %v", err)
	}
	// Every line in both files must be intact (no mid-record splits).
	for _, data := range [][]byte{live, old} {
		for _, l := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			if len(l) != 39 {
				t.Errorf("line length %d, want 39 (record split across rotation)", len(l))
			}
		}
	}
	if got := len(live) + len(old); got > 200 {
		t.Errorf("retained %d bytes, want <= 200", got)
	}
}

func TestJSONLWriterOverRotatingFileKeepsRecordsIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	rf, err := OpenRotatingFile(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJSONLWriter(rf, 64)
	for i := 0; i < 20; i++ {
		j.Write(map[string]any{"seq": i, "pad": strings.Repeat("p", 20)})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, path + ".1"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		for _, l := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(l), &m); err != nil {
				t.Errorf("%s: corrupt line %q: %v", p, l, err)
			}
		}
	}
}

// TestJSONLWriterCloseRaceCountsEveryRecord races writers against
// Close on a small queue: every record offered must end up counted,
// as written or as dropped, never enqueued behind the stop barrier
// and lost.
func TestJSONLWriterCloseRaceCountsEveryRecord(t *testing.T) {
	const rounds, writers, perWriter = 50, 4, 2000
	for round := 0; round < rounds; round++ {
		j := NewJSONLWriter(io.Discard, 64)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(writers)
		for w := 0; w < writers; w++ {
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perWriter; i++ {
					j.Write(i)
				}
			}()
		}
		close(start)
		if err := j.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		wg.Wait()
		if got := j.Written() + j.Dropped(); got != writers*perWriter {
			t.Fatalf("round %d: written %d + dropped %d = %d, want %d offered",
				round, j.Written(), j.Dropped(), got, writers*perWriter)
		}
	}
}

// gatedWriter counts Write calls and holds the first one until
// released, so records pile up in the queue behind it.
type gatedWriter struct {
	entered chan struct{}
	release chan struct{}
	calls   int
	buf     bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls == 1 {
		close(w.entered)
		<-w.release
	}
	return w.buf.Write(p)
}

// TestJSONLWriterGroupCommit checks that records queued behind a
// blocked write go out together: fewer Write calls than records, every
// record written once, in order.
func TestJSONLWriterGroupCommit(t *testing.T) {
	gw := &gatedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	j := NewJSONLWriter(gw, 64)
	j.Write(0)
	<-gw.entered
	const records = 40
	for i := 1; i < records; i++ {
		j.Write(i)
	}
	close(gw.release)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Written() != records || j.Dropped() != 0 {
		t.Fatalf("written %d dropped %d, want %d/0", j.Written(), j.Dropped(), records)
	}
	if gw.calls >= records {
		t.Errorf("%d Write calls for %d records: queued records were not grouped", gw.calls, records)
	}
	lines := strings.Split(strings.TrimSuffix(gw.buf.String(), "\n"), "\n")
	if len(lines) != records {
		t.Fatalf("%d lines, want %d", len(lines), records)
	}
	for i, l := range lines {
		if l != fmt.Sprint(i) {
			t.Fatalf("line %d = %q, want %d (order must be preserved)", i, l, i)
		}
	}
}

// failAfterWriter accepts limit bytes, then fails.
type failAfterWriter struct {
	limit int
	buf   bytes.Buffer
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if room := w.limit - w.buf.Len(); len(p) > room {
		n, _ := w.buf.Write(p[:max(room, 0)])
		return n, errors.New("disk full")
	}
	return w.buf.Write(p)
}

// TestJSONLWriterPartialGroupCounts checks the accounting of a group
// commit that fails midway: the records wholly written count as
// written, the rest as dropped.
func TestJSONLWriterPartialGroupCounts(t *testing.T) {
	gw := &gatedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	fw := &failAfterWriter{limit: 25}
	j := NewJSONLWriter(io.MultiWriter(gw, fw), 64)
	j.Write(0)
	<-gw.entered
	for i := 1; i < 20; i++ {
		j.Write(i)
	}
	close(gw.release)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Records 0..9 take 2 bytes each, 10 and up 3: the first 25 bytes
	// hold 0..9 (20 bytes) and 10 (3 bytes) whole, then two bytes of 11.
	if j.Written() != 11 || j.Dropped() != 9 {
		t.Errorf("written %d dropped %d, want 11/9", j.Written(), j.Dropped())
	}
}

// TestRotatingFileCutsGroupAtRecordBoundary writes multi-record groups
// that straddle MaxBytes: both files hold whole records only, and
// neither exceeds MaxBytes unless a single record does.
func TestRotatingFileCutsGroupAtRecordBoundary(t *testing.T) {
	rec := func(c byte, n int) string { return strings.Repeat(string(c), n-1) + "\n" }
	cases := []struct {
		name       string
		writes     []string
		live, prev string
	}{
		{
			name:   "group straddles the threshold",
			writes: []string{rec('a', 40), rec('b', 40) + rec('c', 40) + rec('d', 40)},
			live:   rec('c', 40) + rec('d', 40),
			prev:   rec('a', 40) + rec('b', 40),
		},
		{
			name:   "group larger than two files",
			writes: []string{rec('a', 30) + rec('b', 30) + rec('c', 30) + rec('d', 30) + rec('e', 30) + rec('f', 30) + rec('g', 30)},
			live:   rec('g', 30),
			prev:   rec('d', 30) + rec('e', 30) + rec('f', 30),
		},
		{
			name:   "oversized record goes out alone",
			writes: []string{rec('a', 40), rec('b', 150) + rec('c', 40)},
			live:   rec('c', 40),
			prev:   rec('b', 150),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			rf, err := OpenRotatingFile(path, 100)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range c.writes {
				if n, err := rf.Write([]byte(w)); err != nil || n != len(w) {
					t.Fatalf("Write = %d, %v; want %d, nil", n, err, len(w))
				}
			}
			if err := rf.Close(); err != nil {
				t.Fatal(err)
			}
			live, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := os.ReadFile(path + ".1")
			if err != nil {
				t.Fatal(err)
			}
			if string(live) != c.live || string(prev) != c.prev {
				t.Errorf("live %q, rotated %q; want %q, %q", live, prev, c.live, c.prev)
			}
		})
	}
}

// TestJSONLWriterWritesMarshalBytes pins each line to json.Marshal's
// bytes plus a newline: HTML escaping, float formatting, map order.
func TestJSONLWriterWritesMarshalBytes(t *testing.T) {
	values := []any{
		map[string]any{"z": 1.5e-7, "a": "<b>&amp;</b>", "m": map[string]float64{"y": 28, "x": 1e21}},
		SpanRecord{TSUnixMS: 1754500000123, RequestID: "6f1f3a9c-0000042", Span: "http_request", DurMS: 0.41,
			Attrs: map[string]any{"route": "decide", "code": 200, "stream": uint64(1234567890)}},
		"plain",
		[]int{1, 2, 3},
	}
	var buf, want bytes.Buffer
	j := NewJSONLWriter(&buf, 16)
	for _, v := range values {
		j.Write(v)
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(b)
		want.WriteByte('\n')
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Errorf("sink wrote\n%s\nwant json.Marshal bytes\n%s", buf.String(), want.String())
	}
}
