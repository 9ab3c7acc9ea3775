package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testHeader() Header {
	return Header{Schema: Schema, Circuit: "c17", Faults: 22, FaultHash: 0xdeadbeef, Seed: 42}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := New(path, testHeader(), nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j.RecordFault(1, "detected", []bool{true, true, false}, "")
	j.RecordFault(2, "untestable", nil, "")
	j.RecordFault(4, "error", nil, "solver panic: boom")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Header != testHeader() {
		t.Fatalf("header mismatch: %+v", st.Header)
	}
	want := map[int]FaultVerdict{
		1: {Status: "detected", Vector: "110"},
		2: {Status: "untestable"},
		4: {Status: "error", Err: "solver panic: boom"},
	}
	if !reflect.DeepEqual(st.Faults, want) {
		t.Fatalf("faults = %+v, want %+v", st.Faults, want)
	}
}

// TestLoadSkipsPrePhaseRecord: journals written before a resume re-ran
// the random-pattern pre-phase carry one "rpt" record of its outcome.
// Such a journal still loads, its fault records intact, and a resume's
// New rewrites it without the pre-phase record.
func TestLoadSkipsPrePhaseRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr, err := json.Marshal(testHeader())
	if err != nil {
		t.Fatal(err)
	}
	old := `{"kind":"header","header":` + string(hdr) + `}
{"kind":"rpt","rpt":{"detected":[0,3],"vectors":["101","001"],"batches":7}}
{"kind":"fault","i":1,"fault":{"status":"detected","vector":"110"}}
{"kind":"fault","i":2,"fault":{"status":"untestable"}}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	prior, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := map[int]FaultVerdict{1: {Status: "detected", Vector: "110"}, 2: {Status: "untestable"}}
	if prior.Header != testHeader() || !reflect.DeepEqual(prior.Faults, want) {
		t.Fatalf("loaded %+v, want header %+v and faults %+v", prior, testHeader(), want)
	}
	j, err := New(path, testHeader(), prior, Options{})
	if err != nil {
		t.Fatalf("New with prior: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"kind":"rpt"`)) {
		t.Fatalf("the rewritten journal keeps the pre-phase record:\n%s", data)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != 3 {
		t.Fatalf("the rewritten journal has %d lines, want the header and 2 faults:\n%s", lines, data)
	}
	st, err := Load(path)
	if err != nil || !reflect.DeepEqual(st.Faults, want) {
		t.Fatalf("reloaded faults %+v (err %v), want %+v", st, err, want)
	}
}

func TestLoadToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := New(path, testHeader(), nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j.RecordFault(0, "detected", []bool{true}, "")
	j.RecordFault(1, "untestable", nil, "")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a kill -9 mid-append: chop bytes off the final line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Load(path)
	if err != nil {
		t.Fatalf("Load after truncation: %v", err)
	}
	if len(st.Faults) != 1 {
		t.Fatalf("want 1 intact fault record, got %d", len(st.Faults))
	}
	if _, ok := st.Faults[0]; !ok {
		t.Fatalf("fault 0 lost: %+v", st.Faults)
	}
}

// TestResumeCompactsAndContinues: resuming rewrites the journal to list
// its fault records in ascending index order, whatever order they were
// decided in, and then keeps appending.
func TestResumeCompactsAndContinues(t *testing.T) {
	const n = 3000
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := New(path, testHeader(), nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := n - 1; i >= 0; i-- {
		j.RecordFault(i, "detected", []bool{true, false}, "")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	prior, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	j2, err := New(path, testHeader(), prior, Options{})
	if err != nil {
		t.Fatalf("New with prior: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("compacted line %q: %v", line, err)
		}
		if r.Kind != "fault" {
			continue
		}
		if *r.Index != next {
			t.Fatalf("compacted segment lists fault %d where %d belongs", *r.Index, next)
		}
		next++
	}
	if next != n {
		t.Fatalf("compacted segment lists %d of %d faults", next, n)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
	j2.RecordFault(n, "aborted", nil, "")
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := Load(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if len(st.Faults) != n+1 {
		t.Fatalf("want %d faults after resume, got %d", n+1, len(st.Faults))
	}
}

func TestResumeRejectsMismatchedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := New(path, testHeader(), nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j.Close()
	prior, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	other := testHeader()
	other.FaultHash++
	if _, err := New(path, other, prior, Options{}); err == nil {
		t.Fatal("New accepted a journal from a different run")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestConcurrentRecordFaultLosesNoVerdict hammers RecordFault from many
// goroutines, with Sync calls interleaved — the write pattern of a
// parallel engine run with worker-count > 1. Run under -race; the
// correctness claim is that no verdict is lost or torn.
func TestConcurrentRecordFaultLosesNoVerdict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	hdr := testHeader()
	const workers, perWorker = 8, 50
	hdr.Faults = workers * perWorker
	j, err := New(path, hdr, nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				i := w*perWorker + k
				switch i % 3 {
				case 0:
					j.RecordFault(i, "detected", []bool{i%2 == 0, true}, "")
				case 1:
					j.RecordFault(i, "untestable", nil, "")
				default:
					j.RecordFault(i, "aborted", nil, "")
				}
				if k%16 == 0 {
					j.Sync()
				}
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Faults) != workers*perWorker {
		t.Fatalf("lost verdicts: %d/%d", len(st.Faults), workers*perWorker)
	}
	for i := 0; i < workers*perWorker; i++ {
		fv, ok := st.Faults[i]
		if !ok {
			t.Fatalf("fault %d missing", i)
		}
		want := [...]string{"detected", "untestable", "aborted"}[i%3]
		if fv.Status != want {
			t.Fatalf("fault %d: status %q, want %q", i, fv.Status, want)
		}
		if want == "detected" {
			if fv.Vector != EncodeVector([]bool{i%2 == 0, true}) {
				t.Fatalf("fault %d: vector %q", i, fv.Vector)
			}
		}
	}
}

// TestStickyWriteErrorDegrades: once a write fails, the journal must go
// inert — Record calls keep working (no panic, no partial writes), Err
// and Close report the first failure, and everything appended before
// the failure is still loadable. This is the full-disk contract: the
// run degrades to uncheckpointed instead of dying.
func TestStickyWriteErrorDegrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := New(path, testHeader(), nil, Options{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j.RecordFault(0, "detected", []bool{true}, "")
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Inject the sticky failure exactly as a failed write would set it.
	boom := fmt.Errorf("disk full")
	j.mu.Lock()
	j.err = boom
	j.mu.Unlock()
	j.RecordFault(1, "detected", []bool{false}, "")
	if got := j.Err(); !errors.Is(got, boom) {
		t.Fatalf("Err = %v, want the injected failure", got)
	}
	if got := j.Sync(); !errors.Is(got, boom) {
		t.Fatalf("Sync = %v, want the injected failure", got)
	}
	if got := j.Close(); !errors.Is(got, boom) {
		t.Fatalf("Close = %v, want the injected failure", got)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatalf("Load after sticky error: %v", err)
	}
	if _, ok := st.Faults[0]; !ok {
		t.Fatalf("pre-error record lost: %+v", st.Faults)
	}
	if _, ok := st.Faults[1]; ok {
		t.Fatal("post-error record reached disk despite sticky failure")
	}
}

func TestLoadRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("{\"kind\":\"fault\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a file with no header")
	}
}

func TestVectorCodec(t *testing.T) {
	v := []bool{true, false, false, true, true}
	s := EncodeVector(v)
	if s != "10011" {
		t.Fatalf("EncodeVector = %q", s)
	}
	back, err := DecodeVector(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("DecodeVector = %v", back)
	}
	if _, err := DecodeVector("10x"); err == nil {
		t.Fatal("DecodeVector accepted a bad character")
	}
}

func TestSyncAfterCloseReportsStickyError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := New(path, testHeader(), nil, Options{Sync: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j.RecordFault(0, "detected", []bool{true}, "")
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Records after close are dropped but must not panic.
	j.RecordFault(1, "detected", nil, "")
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync after close: %v", err)
	}
}
