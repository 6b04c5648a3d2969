package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// JSONLWriter is a bounded, non-blocking JSON-lines sink: callers
// marshal-and-enqueue, and a single background goroutine does the
// actual writing. It commits in groups: every record already queued
// when the goroutine wakes goes out in one Write call from a reused
// buffer, so a burst costs one write instead of one per record and no
// record waits longer than it would written alone. Each Write carries
// only whole newline-terminated records, so a RotatingFile underneath
// still rotates between records. When the queue is full the record is
// dropped and counted instead of blocking the caller — on a serving
// hot path, losing a trace line beats adding latency. A nil
// *JSONLWriter is a no-op sink.
type JSONLWriter struct {
	ch   chan jsonlMsg
	done chan struct{}
	// mu orders enqueues against Close: Write holds it for reading
	// across its closed check and enqueue, and Close holds it for
	// writing to set closed, so no record can land behind the stop
	// barrier uncounted.
	mu        sync.RWMutex
	closed    bool
	dropped   atomic.Int64
	written   atomic.Int64
	closeOnce sync.Once
	closeErr  error
}

// jsonlMsg is one queue entry: either a record line or a flush/stop
// barrier.
type jsonlMsg struct {
	line    *jsonlLine
	barrier chan error
	stop    bool
}

// jsonlLine is one encoded record, newline included. Lines are pooled:
// the writer goroutine copies a line into its group buffer and
// recycles it, so a record costs no buffer allocation of its own.
type jsonlLine struct {
	buf []byte
}

var linePool = sync.Pool{New: func() any { return &jsonlLine{buf: make([]byte, 0, 512)} }}

// NewJSONLWriter starts the writer goroutine over w with the given
// queue capacity (<= 0 means 1024).
func NewJSONLWriter(w io.Writer, queue int) *JSONLWriter {
	if queue <= 0 {
		queue = 1024
	}
	j := &JSONLWriter{
		ch:   make(chan jsonlMsg, queue),
		done: make(chan struct{}),
	}
	go j.run(w)
	return j
}

// run is the writer goroutine. It gathers the records queued up to the
// next barrier (or until the queue is empty), commits them in one
// Write, then answers the barrier, so a flush still covers every
// record enqueued before it.
func (j *JSONLWriter) run(w io.Writer) {
	defer close(j.done)
	var buf []byte
	for msg := range j.ch {
		records := 0
		for msg.barrier == nil {
			buf = append(buf, msg.line.buf...)
			linePool.Put(msg.line)
			records++
			select {
			case msg = <-j.ch:
				continue
			default:
			}
			break
		}
		if records > 0 {
			j.commit(w, buf, records)
			buf = buf[:0]
		}
		if msg.barrier != nil {
			msg.barrier <- flushWriter(w)
			if msg.stop {
				return
			}
		}
	}
}

// commit writes one group of records. A failed Write counts the
// records it did not finish as dropped: every record ends in the only
// newline it contains, so the newlines in the written prefix count the
// records that reached w.
func (j *JSONLWriter) commit(w io.Writer, buf []byte, records int) {
	n, err := w.Write(buf)
	done := int64(records)
	if err != nil {
		done = int64(bytes.Count(buf[:n], []byte{'\n'}))
		j.dropped.Add(int64(records) - done)
	}
	j.written.Add(done)
}

// flushWriter pushes buffered data through when the underlying writer
// supports it (bufio.Writer's Flush, or Sync on files and
// RotatingFile).
func flushWriter(w io.Writer) error {
	switch f := w.(type) {
	case interface{ Flush() error }:
		return f.Flush()
	case interface{ Sync() error }:
		return f.Sync()
	}
	return nil
}

// Write encodes v and enqueues it as one line. A value with an
// AppendJSON method (a JSONAppender) encodes itself, others go through
// json.Marshal; both give json.Marshal's bytes, and v is encoded before
// Write returns. It never blocks: a full queue, an encoding failure
// (such as a NaN float), or a closed writer counts the record as
// dropped. Every record offered is eventually counted exactly once, as
// written or as dropped.
func (j *JSONLWriter) Write(v any) {
	if j == nil {
		return
	}
	line := linePool.Get().(*jsonlLine)
	b, err := appendJSON(line.buf[:0], v)
	line.buf = append(b, '\n')
	if err != nil {
		linePool.Put(line)
		j.dropped.Add(1)
		return
	}
	j.mu.RLock()
	defer j.mu.RUnlock()
	if !j.closed {
		select {
		case j.ch <- jsonlMsg{line: line}:
			return
		default:
		}
	}
	linePool.Put(line)
	j.dropped.Add(1)
}

// Flush blocks until every record enqueued before the call has been
// written through to the underlying writer. Safe after Close.
func (j *JSONLWriter) Flush() error {
	if j == nil {
		return nil
	}
	b := make(chan error, 1)
	select {
	case j.ch <- jsonlMsg{barrier: b}:
		select {
		case err := <-b:
			return err
		case <-j.done:
			return nil
		}
	case <-j.done:
		return nil
	}
}

// Close drains the queue, flushes, and stops the background goroutine.
// Records written after Close count as dropped. Idempotent.
func (j *JSONLWriter) Close() error {
	if j == nil {
		return nil
	}
	j.closeOnce.Do(func() {
		j.mu.Lock()
		j.closed = true
		j.mu.Unlock()
		b := make(chan error, 1)
		select {
		case j.ch <- jsonlMsg{barrier: b, stop: true}:
			select {
			case j.closeErr = <-b:
			case <-j.done:
			}
		case <-j.done:
		}
	})
	<-j.done
	return j.closeErr
}

// Dropped returns how many records were lost to the bounded queue,
// marshal failures, or write errors.
func (j *JSONLWriter) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// Written returns how many records reached the underlying writer.
func (j *JSONLWriter) Written() int64 {
	if j == nil {
		return 0
	}
	return j.written.Load()
}

// RotatingFile is an io.Writer over a JSON-lines file that rotates by
// size: when the next record would push the file past MaxBytes, the
// current file is renamed to <path>.1 (replacing any previous
// rotation) and a fresh file is opened. One rotation level bounds disk
// use at ~2×MaxBytes while keeping a full window of recent records.
//
// A Write holds one or more whole, newline-terminated records (a
// JSONLWriter group commit does). A multi-record Write is cut at the
// last newline that still fits, so files rotate only between records
// and no file exceeds MaxBytes unless a single record does.
type RotatingFile struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	f        *os.File
	size     int64
	rotated  int64
}

// OpenRotatingFile opens (appending) or creates path with the given
// rotation threshold (<= 0 means 64 MiB).
func OpenRotatingFile(path string, maxBytes int64) (*RotatingFile, error) {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open rotating file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: stat rotating file: %w", err)
	}
	return &RotatingFile{path: path, maxBytes: maxBytes, f: f, size: st.Size()}, nil
}

// Write appends p, rotating between records whenever the next one
// would push the file past the threshold.
func (r *RotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	written := 0
	for len(p) > 0 {
		chunk := p
		if room := r.maxBytes - r.size; int64(len(p)) > room {
			// The records that fit end at the last newline within room.
			chunk = p[:bytes.LastIndexByte(p[:max(room, 0)], '\n')+1]
			if len(chunk) == 0 {
				if r.size > 0 {
					if err := r.rotateLocked(); err != nil {
						return written, err
					}
					continue
				}
				// A fresh file and a first record larger than the
				// threshold: it goes out whole, alone.
				chunk = p
				if i := bytes.IndexByte(p, '\n'); i >= 0 {
					chunk = p[:i+1]
				}
			}
		}
		n, err := r.f.Write(chunk)
		r.size += int64(n)
		written += n
		if err != nil {
			return written, err
		}
		p = p[n:]
	}
	return written, nil
}

// rotateLocked renames the live file to <path>.1 and reopens fresh.
func (r *RotatingFile) rotateLocked() error {
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("obs: rotate close: %w", err)
	}
	if err := os.Rename(r.path, r.path+".1"); err != nil {
		return fmt.Errorf("obs: rotate rename: %w", err)
	}
	f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("obs: rotate reopen: %w", err)
	}
	r.f = f
	r.size = 0
	r.rotated++
	return nil
}

// Rotations returns how many times the file has rotated.
func (r *RotatingFile) Rotations() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rotated
}

// Sync flushes the live file to stable storage.
func (r *RotatingFile) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.f.Sync()
}

// Close closes the live file.
func (r *RotatingFile) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.f.Close()
}
