package obs

import (
	"sync/atomic"
	"time"
)

// Span tracing: a Tracer mints hierarchical spans — run → phase (rpt,
// sweep, retry-tier) → group or RPT-batch → fault — and emits each finished
// span to a Trace sink as one `"kind":"span"` JSONL record carrying its
// ID and its parent's ID, so consumers (cmd/atpgreport) can rebuild the
// tree and attribute wall time to the engine's real control flow. A span
// is a small value: Start costs one atomic add, End one timestamp and
// one Trace.Emit. The zero Span (and a nil Tracer) is inert, so
// instrumented code needs no nil checks of its own.

// SpanContext identifies a span and its parent for hierarchical tracing.
// IDs are unique within one Tracer; Parent 0 means a root span.
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
	// tier) and Items an optional work count (chunk size, batch
	// detections, solver effort) — both set by the instrumentation site.
	Detail string `json:"detail,omitempty"`
	Worker int    `json:"worker,omitempty"`
	Items  int64  `json:"items,omitempty"`
	// StartNS is the span's start relative to the tracer's epoch.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
}

// Tracer mints span IDs off one atomic counter and emits finished spans
// to a Trace sink. Safe for concurrent use; a nil Tracer is inert.
type Tracer struct {
	sink  *Trace
	epoch time.Time
	ids   atomic.Uint64
}

// NewTracer returns a tracer emitting to sink, with its epoch (the zero
// point of every StartNS) set to now.
func NewTracer(sink *Trace) *Tracer {
	return &Tracer{sink: sink, epoch: time.Now()}
}

// Span is one in-flight span. Set Detail/Worker/Items freely between
// Start and End; End emits the record. The zero Span is inert.
type Span struct {
	tr    *Tracer
	ctx   SpanContext
	name  string
	start time.Duration // since tracer epoch

	Detail string
	Worker int
	Items  int64
}

// Start begins a span under parent (the zero SpanContext makes a root).
func (t *Tracer) Start(name string, parent SpanContext) Span {
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

// Observed emits an already-measured span ending now with duration dur —
// for sites that detect an interval only at its end (e.g. a commit
// frontier noticing how long it was stalled). Returns the new span's
// context so children can still attach.
func (t *Tracer) Observed(name string, parent SpanContext, dur time.Duration, worker int) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	now := time.Since(t.epoch)
	ctx := SpanContext{ID: t.ids.Add(1), Parent: parent.ID}
	_ = t.sink.Emit(SpanRecord{
		Kind: "span", ID: ctx.ID, Parent: ctx.Parent, Name: name,
		Worker: worker, StartNS: int64(now - dur), DurNS: int64(dur),
	})
	return ctx
}

// Context returns the span's identity, for starting children.
func (s *Span) Context() SpanContext { return s.ctx }

// Active reports whether the span will emit on End — false for the zero
// Span and after End. Lets call sites skip work (e.g. formatting Detail)
// that only feeds the record.
func (s *Span) Active() bool { return s.tr != nil }

// End emits the span record. Safe to call on the zero Span and more than
// once (only the first End emits).
func (s *Span) End() {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.epoch)
	_ = s.tr.sink.Emit(SpanRecord{
		Kind: "span", ID: s.ctx.ID, Parent: s.ctx.Parent, Name: s.name,
		Detail: s.Detail, Worker: s.Worker, Items: s.Items,
		StartNS: int64(s.start), DurNS: int64(now - s.start),
	})
	s.tr = nil
}
