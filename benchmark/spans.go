package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, timed from the benchmark's side of the
// call. Spans of one netlist or job share Group; Parent is the ID of the
// span that made the call (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Group   string `json:"group"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the duration minus the part covered by child spans,
	// filled in by selfTimes.
	SelfNS int64 `json:"self_ns"`
	// Derived marks a span whose duration was reported by the program
	// (Summary.Phases) and whose placement is laid out by the benchmark,
	// not observed.
	Derived bool `json:"derived,omitempty"`
	// AllocBytes and GCCycles are runtime.MemStats deltas across the
	// span (process-wide: in daemon-mix they include the server's
	// concurrent work). Spans built from server timestamps carry none.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	GCCycles   uint32 `json:"gc_cycles,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID. The MemStats read happens before
// the clock is read, so its stop-the-world pause is not charged to the
// span.
func (t *tracer) begin(group, name string, parent int) int {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name,
		StartNS: start, AllocBytes: ms.TotalAlloc, GCCycles: ms.NumGC,
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	stop := time.Since(t.t0).Nanoseconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = stop
	s.AllocBytes = ms.TotalAlloc - s.AllocBytes
	s.GCCycles = ms.NumGC - s.GCCycles
}

// record adds a closed span whose bounds were observed elsewhere (the
// daemon's own job timestamps).
func (t *tracer) record(group, name string, parent int, start, stop time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: stop.Sub(t.t0).Nanoseconds(),
	})
}

// phase is one duration the engine reports about itself.
type phase struct {
	name string
	d    time.Duration
}

// derive adds the phases as derived children of span parent, back to back
// from its start. The engine reports phase durations, not intervals; at
// one worker they partition its work, so they fit inside the call.
func (t *tracer) derive(parent int, phases []phase) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	at := p.StartNS
	for _, ph := range phases {
		end := min(at+ph.d.Nanoseconds(), p.EndNS)
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: parent, Group: p.Group, Name: ph.name,
			StartNS: at, EndNS: end, Derived: true,
		})
		at = end
	}
}

// layerTotals sums, per span name, self time, allocation and GC cycles.
type layerTotals struct {
	selfS   float64
	allocMB float64
	gc      uint32
}

// finish computes self times, writes every span as one JSON line to
// path, and returns the per-name totals.
func (t *tracer) finish(path string) (map[string]layerTotals, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	totals := make(map[string]layerTotals)
	for _, s := range t.spans {
		lt := totals[s.Name]
		lt.selfS += float64(s.SelfNS) / 1e9
		lt.allocMB += float64(s.AllocBytes) / mib
		lt.gc += s.GCCycles
		totals[s.Name] = lt
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return totals, f.Close()
}

// selfTimes sets each span's SelfNS: its duration minus the union of its
// children's intervals, clipped to its own.
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, reach), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}
