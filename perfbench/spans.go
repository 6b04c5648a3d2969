package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval: a client request, a /metrics scrape, a
// layer measurement, or one chunk of calls into a layer function.
// Spans of one request share its request id; Parent links a chunk to
// its layer measurement. Calls, Allocs and Errors count the work a
// chunk did.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent,omitempty"`
	Name      string `json:"name"`
	RequestID string `json:"request_id,omitempty"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Calls     int64  `json:"calls,omitempty"`
	Allocs    uint64 `json:"allocs,omitempty"`
	Errors    int64  `json:"errors,omitempty"`
}

// spanLog keeps spans in memory for the traced run and writes them as
// JSONL when the benchmark ends. A nil *spanLog records nothing, which
// is what untraced runs use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil log).
func (l *spanLog) add(name string, parent int, reqID string, start, end time.Time, calls int64, allocs uint64, errs int64) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, RequestID: reqID,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(),
		Calls: calls, Allocs: allocs, Errors: errs,
	})
	return id
}

// open records a span whose end is filled in later by close; children
// can name it as their parent in between.
func (l *spanLog) open(name string, start time.Time) int {
	return l.add(name, 0, "", start, start, 0, 0, 0)
}

// close sets the end of an open span.
func (l *spanLog) close(id int, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNS = end.Sub(l.t0).Nanoseconds()
}

// layerTotals sums the chunk spans under parent: calls, busy time,
// allocations and errors.
func (l *spanLog) layerTotals(parent int) (calls int64, busy time.Duration, allocs uint64, errs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.Parent == parent {
			calls += s.Calls
			busy += time.Duration(s.EndNS - s.StartNS)
			allocs += s.Allocs
			errs += s.Errors
		}
	}
	return calls, busy, allocs, errs
}

// writeJSONL writes every span, one JSON object per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
