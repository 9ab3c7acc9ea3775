package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Flight recorder: a fixed-size lock-free ring of recent events, always
// on at negligible cost, dumped when something goes wrong (a fault
// panic, a watchdog shrink, SIGINT) so a crash deep into a long run is
// diagnosable after the fact. Writers claim a slot with one atomic add
// and guard the copy with a per-slot spinlock; a writer that finds the
// slot briefly held by a lapped reader skips the record rather than
// block — the recorder trades completeness for never slowing the engine.

// DefaultRingSize is the flight-recorder capacity the engine uses when
// the caller does not supply a ring of its own.
const DefaultRingSize = 512

// RingEvent is one flight-recorder entry. Kind names the event (the
// engine records "group", "solve", "flush", "rpt", "stall", "tier",
// "shrink"); A and B are two event-specific integer arguments (fault
// index and status for a solve, group id and size for a claimed group,
// ...) kept as plain ints so recording never allocates.
type RingEvent struct {
	Seq    uint64 `json:"seq"`
	TNS    int64  `json:"t_ns"` // since the ring's epoch (its creation)
	DurNS  int64  `json:"dur_ns,omitempty"`
	Worker int32  `json:"worker"`
	Kind   string `json:"kind"`
	A      int64  `json:"a,omitempty"`
	B      int64  `json:"b,omitempty"`
}

// ringSlot is one ring cell. lock is a CAS spinlock held only for the
// few stores of a copy; seq is the claim number of the event currently
// stored (0 = empty).
type ringSlot struct {
	lock atomic.Uint32
	ev   RingEvent
}

// Ring is the fixed-size lock-free flight recorder. The zero value is
// unusable; create one with NewRing. A nil *Ring discards records, so
// instrumented code can call Record unconditionally.
type Ring struct {
	slots []ringSlot
	mask  uint64
	seq   atomic.Uint64
	epoch time.Time
}

// NewRing returns a recorder holding the most recent n events (rounded
// up to a power of two, minimum 16).
func NewRing(n int) *Ring {
	size := 16
	for size < n {
		size <<= 1
	}
	return &Ring{slots: make([]ringSlot, size), mask: uint64(size - 1), epoch: time.Now()}
}

// Record appends one event. Lock-free and allocation-free: one atomic
// add claims a slot, a CAS guards the copy, and a slot found locked (a
// concurrent Snapshot, or a writer a full lap ahead) drops the event
// instead of spinning.
func (r *Ring) Record(kind string, worker int, a, b, durNS int64) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	slot := &r.slots[seq&r.mask]
	if !slot.lock.CompareAndSwap(0, 1) {
		return // contended: losing a stale event beats blocking the engine
	}
	slot.ev = RingEvent{
		Seq: seq, TNS: time.Since(r.epoch).Nanoseconds(), DurNS: durNS,
		Worker: int32(worker), Kind: kind, A: a, B: b,
	}
	slot.lock.Store(0)
}

// Recorded returns the total number of events recorded (including those
// already overwritten).
func (r *Ring) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Snapshot copies the surviving events, oldest first. Concurrent Records
// keep running; a slot mid-write is skipped.
func (r *Ring) Snapshot() []RingEvent {
	if r == nil {
		return nil
	}
	out := make([]RingEvent, 0, len(r.slots))
	for i := range r.slots {
		slot := &r.slots[i]
		if !slot.lock.CompareAndSwap(0, 1) {
			continue
		}
		ev := slot.ev
		slot.lock.Store(0)
		if ev.Seq != 0 {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Dump renders the most recent events (all of them when max <= 0) as
// human-readable lines, one per event — the post-mortem view written to
// stderr on a panic or SIGINT.
func (r *Ring) Dump(w io.Writer, max int) {
	if r == nil {
		return
	}
	evs := r.Snapshot()
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	fmt.Fprintf(w, "flight recorder: %d of %d recorded events\n", len(evs), r.Recorded())
	for _, ev := range evs {
		fmt.Fprintf(w, "  [%d] +%.3fms w%d %-6s a=%d b=%d", ev.Seq,
			float64(ev.TNS)/1e6, ev.Worker, ev.Kind, ev.A, ev.B)
		if ev.DurNS > 0 {
			fmt.Fprintf(w, " dur=%.3fms", float64(ev.DurNS)/1e6)
		}
		fmt.Fprintln(w)
	}
}
