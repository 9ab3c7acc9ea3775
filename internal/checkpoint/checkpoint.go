// Package checkpoint persists the progress of a long ATPG run as an
// append-only JSONL journal, so a run killed mid-flight (crash, OOM kill,
// kill -9) can be resumed without re-deciding the faults it already
// settled (Open, Replay).
//
// The journal is a sequence of JSON lines: a header identifying the run
// (circuit, fault list hash, seed) and one record per fault the solver
// finally decided. A resume re-runs the seeded random-pattern pre-phase
// and re-derives fault-simulation drops from the replayed verdicts, so
// neither is journaled. The engine decides each fault once, so a journal
// never holds a superseded record and is never rewritten mid-run:
// records are appended and flushed to the OS as they happen, so a hard
// kill loses at most the trailing partial line — which Load tolerates
// and discards. New writes a journal's starting content (the header,
// plus a resumed run's records) to <path>.tmp, fsyncs it and atomically
// renames it over the journal, so a torn tail from the killed run never
// survives a resume.
//
// Durability policy: every record is flushed to the operating system
// immediately (surviving process death); fsync — surviving power loss —
// happens on open and Close always, on every record when Options.Sync is
// set, and whenever the caller invokes Sync (the CLI does so
// periodically and on SIGINT/SIGTERM).
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
)

// Schema is the journal format version, stored in the header record.
const Schema = "atpgeasy/checkpoint/v1"

// Header identifies the run a journal belongs to. Resume refuses to
// apply a journal whose header does not match the current run, so stale
// checkpoints can never silently corrupt verdicts.
type Header struct {
	Schema  string `json:"schema"`
	Circuit string `json:"circuit"`
	// Faults is the length of the (collapsed) fault list; FaultHash
	// fingerprints its exact content plus the determinism-relevant run
	// options (seed, RPT shape).
	Faults    int    `json:"faults"`
	FaultHash uint64 `json:"fault_hash"`
	Seed      int64  `json:"seed"`
}

// FaultVerdict is one finally-decided fault. Status uses the engine's
// strings: detected, untestable, aborted, error. Faults dropped by fault
// simulation are not journaled: a resume re-derives them.
type FaultVerdict struct {
	Status string `json:"status"`
	Vector string `json:"vector,omitempty"` // bit string, detected faults only
	Err    string `json:"err,omitempty"`    // panic/internal-error message
}

// State is the replayed content of a journal.
type State struct {
	Header Header
	// Faults maps fault-list index to its final verdict.
	Faults map[int]FaultVerdict
}

// record is one JSONL line. Kind discriminates: "header", "fault".
// Index uses a pointer so index 0 survives omitempty-style encodings
// symmetric with decoding.
type record struct {
	Kind   string        `json:"kind"`
	Header *Header       `json:"header,omitempty"`
	Index  *int          `json:"i,omitempty"`
	Fault  *FaultVerdict `json:"fault,omitempty"`
}

// Options configure journal durability.
type Options struct {
	// Sync fsyncs after every appended record. Off (the default), records
	// still reach the OS immediately — surviving kill -9 — and are fsynced
	// on open, Close and explicit Sync calls.
	Sync bool
}

// Journal is an open checkpoint journal. All methods are safe for
// concurrent use; write errors are sticky and reported by Err and Close
// while the Record methods stay callable, so a full disk degrades a run
// to uncheckpointed rather than killing it.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	bw  *bufio.Writer
	opt Options
	err error
}

// EncodeVector renders a test vector as the journal's bit-string form.
func EncodeVector(v []bool) string {
	b := make([]byte, len(v))
	for i, x := range v {
		b[i] = '0'
		if x {
			b[i] = '1'
		}
	}
	return string(b)
}

// DecodeVector parses a journal bit string back into a vector.
func DecodeVector(s string) ([]bool, error) {
	v := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			v[i] = true
		default:
			return nil, fmt.Errorf("checkpoint: bad vector character %q at column %d", s[i], i+1)
		}
	}
	return v, nil
}

// Load replays the journal at path. A truncated final line — the
// signature of a hard kill mid-append — is discarded; any other malformed
// content is an error. The returned state carries every record that made
// it to disk.
func Load(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := &State{Faults: make(map[int]FaultVerdict)}
	sawHeader := false
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// No terminating newline: the append was cut mid-line. Everything
			// before it is intact; drop the partial tail.
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			if len(data) == 0 {
				break // corrupt final line: same treatment as a missing newline
			}
			return nil, fmt.Errorf("checkpoint: %s: malformed record: %v", path, err)
		}
		switch r.Kind {
		case "header":
			if r.Header == nil {
				return nil, fmt.Errorf("checkpoint: %s: header record without header", path)
			}
			if r.Header.Schema != Schema {
				return nil, fmt.Errorf("checkpoint: %s: schema %q, want %q", path, r.Header.Schema, Schema)
			}
			st.Header = *r.Header
			sawHeader = true
		case "rpt":
			// Older journals hold the pre-phase's outcome. A resume re-runs
			// the seeded pre-phase, so the record is skipped and not
			// rewritten.
		case "fault":
			if r.Index == nil || r.Fault == nil {
				return nil, fmt.Errorf("checkpoint: %s: incomplete fault record", path)
			}
			st.Faults[*r.Index] = *r.Fault
		default:
			return nil, fmt.Errorf("checkpoint: %s: unknown record kind %q", path, r.Kind)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("checkpoint: %s: no header record (empty or foreign file)", path)
	}
	return st, nil
}

// New creates (or, with prior, continues) a journal at path. hdr
// identifies the current run; when prior — a Load result — is given, its
// header must match hdr exactly or New refuses, and the new journal
// starts with prior's fault records in ascending index order. The
// starting content is written to <path>.tmp, fsynced and renamed over
// path, replacing any existing file atomically; the journal then appends
// to it.
func New(path string, hdr Header, prior *State, opt Options) (*Journal, error) {
	hdr.Schema = Schema
	if prior != nil && prior.Header != hdr {
		return nil, fmt.Errorf("checkpoint: %s does not match this run: journal %+v, run %+v",
			path, prior.Header, hdr)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, bw: bufio.NewWriterSize(f, 1<<16), opt: opt}
	j.writeLocked(record{Kind: "header", Header: &hdr})
	if prior != nil {
		idxs := make([]int, 0, len(prior.Faults))
		for i := range prior.Faults {
			idxs = append(idxs, i)
		}
		slices.Sort(idxs)
		for _, i := range idxs {
			fv := prior.Faults[i]
			j.writeLocked(record{Kind: "fault", Index: &i, Fault: &fv})
		}
	}
	err = j.err
	if err == nil {
		err = j.bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return j, nil
}

// Err returns the first write error seen over the journal's lifetime.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// RecordFault journals one fault's final verdict. vector may be nil for
// non-detected statuses; errMsg carries a panic or internal-error
// message for status "error".
func (j *Journal) RecordFault(i int, status string, vector []bool, errMsg string) {
	fv := FaultVerdict{Status: status, Err: errMsg}
	if vector != nil {
		fv.Vector = EncodeVector(vector)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(record{Kind: "fault", Index: &i, Fault: &fv})
}

// appendLocked appends one record, flushes it to the OS and applies the
// fsync policy. Called with j.mu held.
func (j *Journal) appendLocked(r record) {
	if j.f == nil {
		return
	}
	j.writeLocked(r)
	if j.err == nil {
		j.err = j.bw.Flush()
	}
	if j.err == nil && j.opt.Sync {
		j.err = j.f.Sync()
	}
}

// writeLocked encodes one record into the buffer. Called with j.mu held
// (or, in New, before the journal is shared).
func (j *Journal) writeLocked(r record) {
	if j.err != nil {
		return
	}
	line, err := json.Marshal(r)
	if err == nil {
		_, err = j.bw.Write(append(line, '\n'))
	}
	j.err = err
}

// Sync flushes buffered records and fsyncs the journal file. The CLI
// calls it periodically and when draining on SIGINT/SIGTERM.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return nil
	}
	if err := j.bw.Flush(); err != nil {
		j.err = err
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Close flushes, fsyncs and closes the journal, reporting the first
// error seen over its lifetime.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.err
	}
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	if err := j.f.Sync(); err != nil && j.err == nil {
		j.err = err
	}
	if err := j.f.Close(); err != nil && j.err == nil {
		j.err = err
	}
	j.f, j.bw = nil, nil
	return j.err
}
