package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSpanEmitsRecord(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)

	root := tr.Start("run", SpanContext{})
	root.Items = 42
	child := tr.Start("phase", root.Context())
	child.Detail = "rpt"
	child.Worker = 3
	child.End()
	child.End() // second End must not double-emit
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var recs []SpanRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Children end first, so the child record leads.
	if recs[0].Kind != "span" || recs[0].Name != "phase" || recs[0].Detail != "rpt" || recs[0].Worker != 3 {
		t.Errorf("child record mismatch: %+v", recs[0])
	}
	if recs[1].Name != "run" || recs[1].Parent != 0 || recs[1].Items != 42 {
		t.Errorf("root record mismatch: %+v", recs[1])
	}
	if recs[0].Parent != recs[1].ID {
		t.Errorf("child parent %d != root id %d", recs[0].Parent, recs[1].ID)
	}
	if recs[0].DurNS < 0 || recs[0].StartNS < recs[1].StartNS {
		t.Errorf("child timing inconsistent: %+v vs root %+v", recs[0], recs[1])
	}
	if got := tr.Recorded(); got != 2 {
		t.Errorf("Recorded = %d, want 2", got)
	}
}

func TestSpanZeroValueAndNilTracerInert(t *testing.T) {
	var s Span
	s.End() // must not panic

	var tr *Trace
	s2 := tr.Start("x", SpanContext{})
	if s2.Context().ID != 0 {
		t.Error("nil trace minted an ID")
	}
	s2.End()
	if ctx := tr.Observed("y", SpanContext{}, 0, 0, ""); ctx.ID != 0 {
		t.Error("nil trace minted an observed ID")
	}
	if tr.Recorded() != 0 || tr.Snapshot() != nil {
		t.Error("nil trace recorded spans")
	}
}

func TestTracerObserved(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	parent := tr.Start("run", SpanContext{})
	ctx := tr.Observed("stall", parent.Context(), 1000, 2, "n7/0")
	if ctx.ID == 0 || ctx.Parent != parent.Context().ID {
		t.Fatalf("observed context %+v", ctx)
	}
	parent.End()
	tr.Close()
	var r SpanRecord
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &r); err != nil {
		t.Fatal(err)
	}
	if r.Name != "stall" || r.DurNS != 1000 || r.Worker != 2 || r.Detail != "n7/0" {
		t.Errorf("observed record %+v", r)
	}
}

func TestTracerConcurrentIDsUnique(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := tr.Start("fault", SpanContext{})
				s.End()
			}
		}()
	}
	wg.Wait()
	tr.Close()
	seen := make(map[uint64]bool)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad line: %v", err)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d spans, want %d", len(seen), workers*per)
	}
}

// TestRingRecordAndSnapshot: a record-only trace writes nothing and its
// flight recorder holds the newest 64 finished spans, oldest first.
func TestRingRecordAndSnapshot(t *testing.T) {
	tr := NewTrace(nil)
	if tr.rec.Load() != nil {
		t.Fatal("recorder allocated before the first span")
	}
	for i := 0; i < 100; i++ {
		s := tr.Start("solve", SpanContext{})
		s.Items = int64(i)
		s.End()
	}
	if got := tr.Recorded(); got != 100 {
		t.Fatalf("Recorded = %d, want 100", got)
	}
	spans := tr.Snapshot()
	if len(spans) != recorderSize {
		t.Fatalf("snapshot kept %d spans, want %d (capacity)", len(spans), recorderSize)
	}
	for k, sp := range spans {
		if want := int64(100 - recorderSize + k); sp.Items != want || sp.Kind != "span" {
			t.Fatalf("snapshot[%d] = %+v, want the span with items %d", k, sp, want)
		}
	}
	if tr.Events() != 0 {
		t.Errorf("record-only trace wrote %d lines", tr.Events())
	}
	if err := tr.Emit(map[string]int{"x": 1}); err != nil {
		t.Errorf("Emit on a record-only trace: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("Close on a record-only trace: %v", err)
	}
}

// TestRingNilSafe: a nil trace's recorder reads are inert.
func TestRingNilSafe(t *testing.T) {
	var tr *Trace
	if tr.Snapshot() != nil || tr.Recorded() != 0 {
		t.Error("nil trace not inert")
	}
	var buf bytes.Buffer
	tr.Dump(&buf, 0)
	if buf.Len() != 0 {
		t.Errorf("nil trace dumped %q", buf.String())
	}
	NewTrace(nil).Dump(&buf, 0) // no span yet: header only
	if !strings.HasPrefix(buf.String(), "flight recorder: 0 of 0") {
		t.Errorf("empty dump %q", buf.String())
	}
}

// TestRingConcurrentWriters: spans finishing on many goroutines while
// others snapshot the recorder must not race (run under -race), and every
// span is counted.
func TestRingConcurrentWriters(t *testing.T) {
	for _, w := range []*bytes.Buffer{nil, new(bytes.Buffer)} {
		var tr *Trace
		if w == nil {
			tr = NewTrace(nil)
		} else {
			tr = NewTrace(w)
		}
		const workers, per = 8, 500
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					s := tr.Start("group", SpanContext{})
					s.Worker = g
					s.End()
					if i%64 == 0 {
						tr.Snapshot() // concurrent reads must not race writers
					}
				}
			}()
		}
		wg.Wait()
		if got := tr.Recorded(); got != workers*per {
			t.Fatalf("Recorded = %d, want %d", got, workers*per)
		}
		if n := len(tr.Snapshot()); n == 0 || n > recorderSize {
			t.Fatalf("snapshot size %d out of range", n)
		}
	}
}

// TestRingDump: the dump lists the newest spans with their name, worker,
// items and detail, under a header counting what was recorded.
func TestRingDump(t *testing.T) {
	tr := NewTrace(nil)
	for i := 0; i < 3; i++ {
		s := tr.Start("fault", SpanContext{})
		s.Worker, s.Items, s.Detail = 2, 7, fmt.Sprintf("n%d/1", i)
		s.End()
	}
	var buf bytes.Buffer
	tr.Dump(&buf, 2)
	out := buf.String()
	for _, want := range []string{"flight recorder: 2 of 3 recorded spans", "w2 fault", "items=7", "n2/1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "n0/1") {
		t.Errorf("dump of the newest 2 printed the oldest span:\n%s", out)
	}
}
