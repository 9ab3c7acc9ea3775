package atpg

// The per-fault effort log: one append-only JSONL stream joining each
// fault's cheap structural features (features.go) with the effort its
// decision actually took — which phase decided it, solver search
// counters, wall time, escalation tier, wasted-solve flag. The stream is the
// dataset the source paper's Figure 1 plots, and cmd/atpgreport measures
// how well each structural feature predicts the effort. Schema-versioned
// like the checkpoint journal.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"atpgeasy/internal/ioguard"
	"atpgeasy/internal/obs"
)

// EffortSchema versions the effort-log format. Bump on any incompatible
// record change; readers reject unknown schemas instead of guessing.
const EffortSchema = "atpgeasy/effort/v1"

// EffortHeader is the first record of an effort log.
type EffortHeader struct {
	Kind    string `json:"kind"` // "header"
	Schema  string `json:"schema"`
	Circuit string `json:"circuit"`
	Faults  int    `json:"faults"`
	Workers int    `json:"workers"`
}

// EffortRecord is one fault's features-joined-with-outcome line: the
// run's per-fault record. Every fault that receives a verdict gets
// exactly one record that is not Wasted, so a completed run's log holds
// one per fault: RPT-detected, solver-decided, retried, resumed, or
// dropped by fault simulation (Phase "dropped", Status "dropped", no
// solver work). Each speculative solve discarded because fault
// simulation dropped the fault first adds one more record, Phase
// "dropped" with Wasted true.
type EffortRecord struct {
	Kind string `json:"kind"` // "fault"
	// Index is the fault-list index — the join key against the
	// checkpoint journal and Summary.Results. Fault is the fault's name.
	Index int    `json:"i"`
	Fault string `json:"fault"`
	Net   int    `json:"net"`
	SA    int    `json:"sa"` // stuck-at value, 0 or 1

	FaultFeatures

	// Phase names the pipeline stage that produced this verdict: "rpt",
	// "sweep", "retry" (an escalated attempt: Tier > 0), "resume" or
	// "dropped" (fault simulation, or a wasted speculative solve). A
	// resumed run re-runs the pre-phase, whose detections get "rpt"
	// records as in any run; "resume" marks journaled solver verdicts
	// only.
	Phase  string `json:"phase"`
	Status string `json:"status"` // detected|untestable|aborted|error|dropped
	// Tier is the solve's Result.Tier: the escalation attempt that
	// decided the fault, or the last one tried (0 = the first solve).
	Tier   int  `json:"tier,omitempty"`
	Worker int  `json:"worker"` // solving worker; −1 when no solver ran
	Wasted bool `json:"wasted,omitempty"`

	Vars    int   `json:"vars,omitempty"`
	Clauses int   `json:"clauses,omitempty"`
	BuildNS int64 `json:"build_ns,omitempty"`
	LoadNS  int64 `json:"load_ns,omitempty"` // the loading part of BuildNS
	SolveNS int64 `json:"solve_ns,omitempty"`

	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	Conflicts    int64 `json:"conflicts,omitempty"`
	// Effort is sat.Stats.SearchEffort — the log's canonical solver-work
	// scalar, present (possibly 0) on every record.
	Effort int64 `json:"effort"`

	// Region-grouped solving (absent on records without a solve): Group
	// is the 1-based canonical region-group id, GroupSize its member
	// count, and LearnedReused the retained learned clauses this fault's
	// solve used in conflict analysis.
	Group         int   `json:"group,omitempty"`
	GroupSize     int   `json:"group_size,omitempty"`
	LearnedReused int64 `json:"learned_reused,omitempty"`

	// Err and Stack carry an errored fault's recovered panic: the panic
	// message and the goroutine stack captured at recovery (a resumed
	// record has the journaled message only).
	Err   string `json:"err,omitempty"`
	Stack string `json:"stack,omitempty"`
}

// EffortLog is the append-only JSONL sink for effort records, written
// through an obs.Trace: records are encoded outside its lock in
// per-worker scratch buffers, so the critical section is one buffered
// write, and the first write error is sticky. A nil *EffortLog discards
// records.
type EffortLog struct{ sink *obs.Trace }

// NewEffortLog wraps w in a buffered effort-record sink. If w is an
// io.Closer, Close closes it after flushing.
func NewEffortLog(w io.Writer) *EffortLog { return &EffortLog{obs.NewTrace(w)} }

// CreateEffortLog opens (truncating) an effort log file at path.
func CreateEffortLog(path string) (*EffortLog, error) {
	tr, err := obs.CreateTrace(path)
	if err != nil {
		return nil, err
	}
	return &EffortLog{tr}, nil
}

// Records returns the number of records written so far (header included).
func (l *EffortLog) Records() int64 {
	if l == nil {
		return 0
	}
	return l.sink.Events()
}

// Close flushes the buffer and closes the underlying writer if it is a
// Closer. It reports the first error seen over the log's lifetime.
func (l *EffortLog) Close() error {
	if l == nil {
		return nil
	}
	return l.sink.Close()
}

// effortEncoder is one worker's reusable record-encoding scratch: the
// JSON bytes are built here, outside the log's lock.
type effortEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func (e *effortEncoder) encode(rec *EffortRecord) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	if err := e.enc.Encode(rec); err != nil {
		return nil, err
	}
	return e.buf.Bytes(), nil
}

// effortState is the engine side of an enabled effort log: the log and
// the precomputed feature table. Nil when RunOptions.EffortLog is nil,
// so the disabled cost is one pointer check per fault.
type effortState struct {
	log   *EffortLog
	feats []FaultFeatures
}

// newEffortState precomputes every fault's features off the region
// table rt and writes the log header. Runs before resume replay and the
// RPT pre-phase so all of their records carry features too.
func newEffortState(log *EffortLog, rt *regionTable, faults []Fault, workers int) (*effortState, error) {
	es := &effortState{
		log:   log,
		feats: rt.features(faults),
	}
	hdr, err := json.Marshal(EffortHeader{
		Kind: "header", Schema: EffortSchema, Circuit: rt.c.Name,
		Faults: len(faults), Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	return es, es.log.sink.WriteLine(append(hdr, '\n'))
}

// recordEffort emits one fault's effort record, encoded in the calling
// worker's scratch (serial call sites borrow worker 0's). res is nil for
// verdicts that never ran a solver — RPT detections (status detected)
// and clean drops — while a "dropped" record carrying a result is a
// wasted speculative solve. Any encoding or write error is sticky in the
// log and surfaced at Close, never failing the run.
func (st *runState) recordEffort(ws *workerScratch, i int, res *Result, phase string, worker int) {
	es := st.effort
	f := st.faults[i]
	rec := EffortRecord{
		Kind: "fault", Index: i, Fault: f.Name(st.c), Net: f.Net,
		FaultFeatures: es.feats[i],
		Phase:         phase, Status: Detected.String(),
		Worker: worker,
	}
	if f.StuckAt {
		rec.SA = 1
	}
	if res != nil {
		rec.Status = res.Status.String()
	}
	if phase == "dropped" {
		rec.Status = "dropped"
		rec.Wasted = res != nil
	}
	if res != nil {
		rec.Tier = res.Tier
		rec.Vars, rec.Clauses = res.Vars, res.Clauses
		rec.BuildNS = res.BuildElapsed.Nanoseconds()
		rec.LoadNS = res.LoadElapsed.Nanoseconds()
		rec.SolveNS = res.Elapsed.Nanoseconds()
		ss := res.SolverStats
		rec.Decisions, rec.Propagations, rec.Conflicts = ss.Decisions, ss.Propagations, ss.Conflicts
		rec.Effort = ss.SearchEffort()
		rec.Group, rec.GroupSize = res.Group, res.GroupSize
		rec.LearnedReused = ss.LearnedReused
		rec.Err, rec.Stack = res.Err, res.Stack
	}
	// Errors are sticky in the log; the run itself never fails on telemetry.
	if line, err := ws.eff.encode(&rec); err == nil {
		_ = es.log.sink.WriteLine(line)
	}
}

// DecodeEffortLog parses an effort log stream into its header and
// records. Torn lines follow the checkpoint journal's rule: a malformed
// final line is dropped (a crashed run's log is still analyzable), while
// a malformed line with records after it is an error. A missing or
// wrong-schema header is an error too. Used by cmd/atpgreport and the
// round-trip tests.
func DecodeEffortLog(r io.Reader) (EffortHeader, []EffortRecord, error) {
	var hdr EffortHeader
	var recs []EffortRecord
	sc := ioguard.Scanner(r, 0)
	first := true
	var torn error // a malformed line: fatal unless no record follows it
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if torn != nil {
			return hdr, nil, torn
		}
		if first {
			first = false
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Kind != "header" {
				return hdr, nil, errBadEffortHeader
			}
			if hdr.Schema != EffortSchema {
				return hdr, nil, errBadEffortSchema(hdr.Schema)
			}
			continue
		}
		var rec EffortRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			torn = fmt.Errorf("atpg: effort log line %d: malformed record: %v", n, err)
			continue
		}
		if rec.Kind == "fault" {
			recs = append(recs, rec)
		}
	}
	if first {
		return hdr, nil, errBadEffortHeader
	}
	return hdr, recs, ioguard.ScanErr("atpg: effort log", sc.Err(), 0)
}

type effortDecodeError string

func (e effortDecodeError) Error() string { return string(e) }

const errBadEffortHeader = effortDecodeError("atpg: effort log has no valid header record")

func errBadEffortSchema(got string) error {
	return effortDecodeError("atpg: effort log schema " + got + " is not " + EffortSchema)
}
