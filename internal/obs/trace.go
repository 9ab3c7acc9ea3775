package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Trace is a structured event sink: each Emit appends one JSON object as
// a line (JSONL) to the underlying writer. Emits from concurrent workers
// are serialized; a nil *Trace discards events, so instrumented code can
// call Emit unconditionally.
type Trace struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	closer io.Closer
	events atomic.Int64
	err    error
}

// NewTrace wraps w in a buffered JSONL sink. If w is an io.Closer, Close
// closes it after flushing.
func NewTrace(w io.Writer) *Trace {
	bw := bufio.NewWriterSize(w, 1<<16)
	t := &Trace{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
	return t
}

// CreateTrace opens (truncating) a JSONL trace file at path.
func CreateTrace(path string) (*Trace, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewTrace(f), nil
}

// Emit appends v as one JSON line. The first write error is retained and
// returned by this and every later call (and by Close).
func (t *Trace) Emit(v any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if err := t.enc.Encode(v); err != nil {
		t.err = err
		return err
	}
	t.events.Add(1)
	return nil
}

// WriteLine appends one pre-encoded JSON line (ending in '\n') under the
// same lock and sticky error as Emit, so a caller can encode outside the
// lock and hold it only for one buffered write. It counts as one event.
func (t *Trace) WriteLine(line []byte) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	if _, err := t.bw.Write(line); err != nil {
		t.err = err
		return err
	}
	t.events.Add(1)
	return nil
}

// Events returns the number of events emitted so far.
func (t *Trace) Events() int64 {
	if t == nil {
		return 0
	}
	return t.events.Load()
}

// Close flushes the buffer and closes the underlying writer if it is a
// Closer. It reports the first error seen over the trace's lifetime.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.closer != nil {
		if err := t.closer.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.closer = nil
	}
	return t.err
}
