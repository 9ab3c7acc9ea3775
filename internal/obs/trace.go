package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is a run's one event record. It mints hierarchical spans — run →
// phase (rpt, sweep) → group or RPT-batch, plus the flush and
// frontier-stall events — and keeps the last 64
// finished spans in an always-on flight recorder, dumped when something
// goes wrong (a fault panic, SIGINT) so a failure deep into a long run
// is diagnosable after the fact. A Trace with a writer
// also writes every finished span as one `"kind":"span"` JSONL line
// carrying its ID and its parent's ID, so consumers (cmd/atpgreport) can
// rebuild the tree and attribute wall time to the engine's real control
// flow; NewTrace(nil) only records. Emit and WriteLine append other
// lines to the writer under the same lock and sticky error (the effort
// log is a Trace that never starts a span). Safe for concurrent use; a
// nil *Trace discards everything, so instrumented code needs no nil
// checks of its own.
type Trace struct {
	mu     sync.Mutex
	bw     *bufio.Writer // nil: record-only
	enc    *json.Encoder
	closer io.Closer
	events atomic.Int64
	err    error

	epoch time.Time
	ids   atomic.Uint64
	rec   atomic.Pointer[recorder] // allocated by the first finished span
}

// NewTrace returns a trace writing JSONL to w through a buffer, or a
// record-only trace when w is nil. If w is an io.Closer, Close closes it
// after flushing.
func NewTrace(w io.Writer) *Trace {
	t := &Trace{epoch: time.Now()}
	if w == nil {
		return t
	}
	t.bw = bufio.NewWriterSize(w, 1<<16)
	t.enc = json.NewEncoder(t.bw)
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
// returned by this and every later call (and by Close). A record-only
// trace discards v.
func (t *Trace) Emit(v any) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitLocked(v)
}

func (t *Trace) emitLocked(v any) error {
	if t.err != nil || t.bw == nil {
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
	if t.err != nil || t.bw == nil {
		return t.err
	}
	if _, err := t.bw.Write(line); err != nil {
		t.err = err
		return err
	}
	t.events.Add(1)
	return nil
}

// Events returns the number of lines written so far.
func (t *Trace) Events() int64 {
	if t == nil {
		return 0
	}
	return t.events.Load()
}

// Close flushes the buffer and closes the underlying writer if it is a
// Closer. It reports the first error seen over the trace's lifetime. The
// flight recorder stays readable.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.bw == nil {
		return nil
	}
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

// SpanContext identifies a span and its parent for hierarchical tracing.
// IDs are unique within one Trace; Parent 0 means a root span.
type SpanContext struct {
	ID     uint64
	Parent uint64
}

// SpanRecord is the JSONL form of a finished span.
type SpanRecord struct {
	Kind   string `json:"kind"` // always "span"
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Detail is an optional human label (e.g. the fault name or retry
	// tier) and Items an optional work count (group size, batch
	// detections, solver effort) — both set by the instrumentation site.
	Detail string `json:"detail,omitempty"`
	Worker int    `json:"worker,omitempty"`
	Items  int64  `json:"items,omitempty"`
	// StartNS is the span's start relative to the trace's epoch (its
	// creation).
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// Span is one in-flight span. Set Detail/Worker/Items freely between
// Start and End; End records it. A span is a small value: Start costs
// one atomic add and a timestamp. The zero Span is inert.
type Span struct {
	tr    *Trace
	ctx   SpanContext
	name  string
	start time.Duration // since the trace's epoch

	Detail string
	Worker int
	Items  int64
}

// Start begins a span under parent (the zero SpanContext makes a root).
func (t *Trace) Start(name string, parent SpanContext) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tr:    t,
		ctx:   SpanContext{ID: t.ids.Add(1), Parent: parent.ID},
		name:  name,
		start: time.Since(t.epoch),
	}
}

// Observed records an already-measured span ending now with duration
// dur — for sites that detect an interval only at its end (e.g. a commit
// frontier noticing how long it was stalled). Returns the new span's
// context so children can still attach.
func (t *Trace) Observed(name string, parent SpanContext, dur time.Duration, worker int, detail string) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	now := time.Since(t.epoch)
	ctx := SpanContext{ID: t.ids.Add(1), Parent: parent.ID}
	t.finish(SpanRecord{
		Kind: "span", ID: ctx.ID, Parent: ctx.Parent, Name: name, Detail: detail,
		Worker: worker, StartNS: int64(now - dur), DurNS: int64(dur),
	})
	return ctx
}

// Context returns the span's identity, for starting children.
func (s *Span) Context() SpanContext { return s.ctx }

// End records the span. Safe to call on the zero Span and more than once
// (only the first End records).
func (s *Span) End() {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.epoch)
	s.tr.finish(SpanRecord{
		Kind: "span", ID: s.ctx.ID, Parent: s.ctx.Parent, Name: s.name,
		Detail: s.Detail, Worker: s.Worker, Items: s.Items,
		StartNS: int64(s.start), DurNS: int64(now - s.start),
	})
	s.tr = nil
}

// finish puts one finished span in the flight recorder and, on a trace
// with a writer, writes it — both under the writer's lock, so the
// recorder's newest spans are the file's last lines, in the same order.
func (t *Trace) finish(r SpanRecord) {
	rec := t.rec.Load()
	if rec == nil {
		t.rec.CompareAndSwap(nil, new(recorder))
		rec = t.rec.Load()
	}
	if t.bw == nil {
		rec.put(r)
		return
	}
	t.mu.Lock()
	rec.put(r)
	_ = t.emitLocked(r)
	t.mu.Unlock()
}

// recorderSize is the flight recorder's capacity: the last 64 finished
// spans, the most any dump prints.
const recorderSize = 64

// recorder is the flight recorder: a fixed-size lock-free ring of the
// newest finished spans. Writers claim a slot with one atomic add and
// guard the copy with a per-slot spinlock; a writer that finds the slot
// briefly held by a reader skips the span rather than block — the
// recorder trades completeness for never slowing the engine.
type recorder struct {
	slots [recorderSize]recorderSlot
	seq   atomic.Uint64
}

// recorderSlot is one ring cell. lock is a CAS spinlock held only for
// the few stores of a copy; seq is the claim number of the span stored
// (0 = empty).
type recorderSlot struct {
	lock atomic.Uint32
	seq  uint64
	span SpanRecord
}

func (r *recorder) put(sp SpanRecord) {
	seq := r.seq.Add(1)
	slot := &r.slots[seq%recorderSize]
	if !slot.lock.CompareAndSwap(0, 1) {
		return // contended: losing a stale span beats blocking the engine
	}
	slot.seq, slot.span = seq, sp
	slot.lock.Store(0)
}

// Recorded returns the number of spans finished so far, including those
// the recorder has already overwritten.
func (t *Trace) Recorded() uint64 {
	if t == nil {
		return 0
	}
	if rec := t.rec.Load(); rec != nil {
		return rec.seq.Load()
	}
	return 0
}

// Snapshot copies the spans the recorder still holds, oldest first.
// Concurrent spans keep finishing; a slot mid-write or already reused by
// a newer span is skipped.
func (t *Trace) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	rec := t.rec.Load()
	if rec == nil {
		return nil
	}
	last := rec.seq.Load()
	first := uint64(1)
	if last > recorderSize {
		first = last - recorderSize + 1
	}
	out := make([]SpanRecord, 0, last-first+1)
	for seq := first; seq <= last; seq++ {
		slot := &rec.slots[seq%recorderSize]
		if !slot.lock.CompareAndSwap(0, 1) {
			continue
		}
		if slot.seq == seq {
			out = append(out, slot.span)
		}
		slot.lock.Store(0)
	}
	return out
}

// Dump renders the newest max recorded spans (all the recorder holds
// when max <= 0) as human-readable lines, one per span — the post-mortem
// view written to stderr on a fault panic or SIGINT.
func (t *Trace) Dump(w io.Writer, max int) {
	if t == nil {
		return
	}
	spans := t.Snapshot()
	if max > 0 && len(spans) > max {
		spans = spans[len(spans)-max:]
	}
	fmt.Fprintf(w, "flight recorder: %d of %d recorded spans\n", len(spans), t.Recorded())
	for _, sp := range spans {
		fmt.Fprintf(w, "  +%.3fms w%d %-14s dur=%.3fms", float64(sp.StartNS+sp.DurNS)/1e6,
			sp.Worker, sp.Name, float64(sp.DurNS)/1e6)
		if sp.Items != 0 {
			fmt.Fprintf(w, " items=%d", sp.Items)
		}
		if sp.Detail != "" {
			fmt.Fprintf(w, " %s", sp.Detail)
		}
		fmt.Fprintln(w)
	}
}
