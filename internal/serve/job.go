package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/bench"
	"atpgeasy/internal/blif"
	"atpgeasy/internal/checkpoint"
	"atpgeasy/internal/decomp"
	"atpgeasy/internal/logic"
)

// Job states. A job is admitted as StateQueued, picked up by a runner
// as StateRunning, and ends in exactly one of the terminal states. A
// daemon killed hard leaves jobs persisted as queued or running; the
// restart scan re-enqueues both — running jobs resume from their
// checkpoint journal, byte-identical to an uninterrupted run.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobMeta is a job's durable identity and lifecycle record —
// meta.json in the job directory, rewritten atomically on every state
// transition so a crash observes only complete states.
type JobMeta struct {
	ID       string   `json:"id"`
	Name     string   `json:"name"`
	Format   string   `json:"format"` // "bench" or "blif"
	Priority Priority `json:"priority"`
	State    string   `json:"state"`
	// BudgetNS is the optional per-fault SAT budget. It never changes
	// which vectors a detected fault gets (budgets only move faults
	// between decided and aborted), but an aborted-under-budget fault may
	// decide differently on a resumed run with different machine load —
	// submit without a budget when byte-identical crash recovery matters.
	BudgetNS int64 `json:"budget_ns,omitempty"`
	// DeadlineNS bounds one run attempt wall-clock; past it the job fails
	// with a deadline error (its journal survives for inspection).
	DeadlineNS  int64     `json:"deadline_ns,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	Error       string    `json:"error,omitempty"`
}

// JobResult is result.json: the durable outcome of a completed job,
// including the full vector set so clients (and the chaos harness) can
// compare runs bit-for-bit.
type JobResult struct {
	Schema        string   `json:"schema"`
	Circuit       string   `json:"circuit"`
	Faults        int      `json:"faults"`
	Detected      int      `json:"detected"`
	DetectedByRPT int      `json:"detected_by_rpt"`
	Untestable    int      `json:"untestable"`
	Aborted       int      `json:"aborted"`
	Errors        int      `json:"errors"`
	Coverage      float64  `json:"coverage"`
	Vectors       []string `json:"vectors"` // "0101…" over the circuit inputs
	SATTimeNS     int64    `json:"sat_time_ns"`
	WallNS        int64    `json:"wall_ns"`
	// Resumed counts the solver verdicts replayed from the journal; the
	// pre-phase's detections are not among them, since a resumed run
	// re-runs the seeded pre-phase.
	Resumed int `json:"resumed,omitempty"`
}

// jobResultSchema versions result.json.
const jobResultSchema = "atpgeasy/job-result/v1"

// job is the in-memory side of one submission. meta and progress are
// guarded by mu; the changed channel is closed and replaced on every
// update (a broadcast any number of SSE subscribers can select on).
type job struct {
	dir string

	mu          sync.Mutex
	meta        JobMeta
	progress    atpg.Progress
	hasProgress bool
	changed     chan struct{}
	// userCancel marks a DELETE-initiated cancellation, distinguishing it
	// from a drain (which must leave the job resumable, not canceled).
	userCancel bool
	cancel     context.CancelFunc
	done       chan struct{} // closed when the job reaches a terminal state
}

func newJob(dir string, meta JobMeta) *job {
	return &job{dir: dir, meta: meta, changed: make(chan struct{}), done: make(chan struct{})}
}

// snapshot returns a consistent copy of the job's meta and latest
// progress.
func (j *job) snapshot() (JobMeta, atpg.Progress, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.meta, j.progress, j.hasProgress
}

// changeCh returns the current broadcast channel; it is closed at the
// next update.
func (j *job) changeCh() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.changed
}

// notifyLocked wakes every subscriber. Called with j.mu held.
func (j *job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

func (j *job) storeProgress(p atpg.Progress) {
	j.mu.Lock()
	j.progress = p
	j.hasProgress = true
	j.notifyLocked()
	j.mu.Unlock()
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// setState transitions the job and persists the new meta atomically.
// Terminal transitions close done exactly once.
func (j *job) setState(state, errMsg string) error {
	j.mu.Lock()
	wasTerminal := terminal(j.meta.State)
	j.meta.State = state
	if errMsg != "" {
		j.meta.Error = errMsg
	}
	switch state {
	case StateRunning:
		j.meta.StartedAt = time.Now().UTC()
	case StateDone, StateFailed, StateCanceled:
		j.meta.FinishedAt = time.Now().UTC()
	}
	meta := j.meta
	j.notifyLocked()
	if terminal(state) && !wasTerminal {
		close(j.done)
	}
	j.mu.Unlock()
	return writeMeta(j.dir, meta)
}

// writeMeta persists meta.json via the tmp+rename idiom, so a crash
// mid-write leaves the previous state readable rather than a torn file.
func writeMeta(dir string, meta JobMeta) error {
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "meta.json.tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, "meta.json"))
}

func readMeta(dir string) (JobMeta, error) {
	var meta JobMeta
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return meta, err
	}
	err = json.Unmarshal(data, &meta)
	return meta, err
}

func (j *job) netlistPath() string { return filepath.Join(j.dir, "netlist") }
func (j *job) ckptPath() string    { return filepath.Join(j.dir, "ckpt") }
func (j *job) resultPath() string  { return filepath.Join(j.dir, "result.json") }

// loadResult reads result.json back. The daemon keeps no copy of a
// finished job's result in memory: GET /jobs/{id} and /vectors read it
// from disk on demand.
func (j *job) loadResult() (*JobResult, error) {
	data, err := os.ReadFile(j.resultPath())
	if err != nil {
		return nil, err
	}
	var r JobResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// jobRunOptions is the option set every job runs with: the standard flow
// (atpg.DefaultRunOptions) with fault dropping OFF, because the
// benchmark's daemon check counts a job's detections as detected +
// detected_by_rpt, without drops (a dropping job would resume exactly).
// Only the per-fault budget varies per job; it is excluded from the
// checkpoint fingerprint because budgets never change a decided fault's
// vector.
func jobRunOptions(tel *atpg.Telemetry, budget time.Duration, resume *atpg.ResumeState, journal atpg.JournalSink) atpg.RunOptions {
	opt := atpg.DefaultRunOptions()
	opt.DropDetected = false
	opt.PerFaultBudget = budget
	opt.Telemetry = tel
	opt.Resume = resume
	opt.Journal = journal
	return opt
}

// loadJobCircuit parses the job's persisted netlist (behind the same
// caps the submission path used) and prepares the collapsed fault list.
// Deterministic: the same bytes always yield the same circuit and fault
// list, which is what binds a resumed run to its journal.
func (s *Server) loadJobCircuit(j *job) (*logic.Circuit, []atpg.Fault, error) {
	f, err := os.Open(j.netlistPath())
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var c *logic.Circuit
	switch j.meta.Format {
	case "blif":
		c, err = blif.ReadCapped(f, s.cfg.MaxNetlistBytes, s.cfg.MaxNetlistLine)
	default:
		c, err = bench.ReadCapped(f, j.meta.Name, s.cfg.MaxNetlistBytes, s.cfg.MaxNetlistLine)
	}
	if err != nil {
		return nil, nil, err
	}
	if c, err = decomp.Decompose(c, 3); err != nil {
		return nil, nil, err
	}
	faults := atpg.CollapseDominance(c, atpg.Collapse(c, atpg.AllFaults(c)))
	return c, faults, nil
}

// runJob executes one job end to end behind a panic barrier: parse,
// open/resume the journal, run the engine, persist the outcome. A panic
// anywhere — a poisoned netlist that slips past the parser's own
// recover, a bug in the result plumbing — marks only this job failed;
// the runner that called us keeps serving other tenants.
func (s *Server) runJob(parent context.Context, j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("job %s: panic: %v\n%s", j.meta.ID, r, debug.Stack())
			s.jobsCompleted.With(StateFailed).Inc()
			_ = j.setState(StateFailed, fmt.Sprintf("internal panic: %v", r))
		}
	}()
	if err := j.setState(StateRunning, ""); err != nil {
		s.logf("job %s: persist running state: %v", j.meta.ID, err)
	}

	ctx, cancel := context.WithCancel(parent)
	if j.meta.DeadlineNS > 0 {
		ctx, cancel = context.WithTimeout(parent, time.Duration(j.meta.DeadlineNS))
	}
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	if s.testHookRun != nil {
		s.testHookRun(j)
	}

	c, faults, err := s.loadJobCircuit(j)
	if err != nil {
		s.jobsCompleted.With(StateFailed).Inc()
		_ = j.setState(StateFailed, err.Error())
		return
	}

	// The job's coverage series lives while the engine runs: the engine
	// makes its last OnProgress call before RunFaults returns, and the
	// series is gone before the job publishes any outcome, so a client
	// that observes a terminal state never finds it in /metrics. The
	// deferred Forget covers a panic out of RunFaults.
	defer s.jobProgress.Forget(j.meta.ID)
	tel := &atpg.Telemetry{
		Metrics:       s.met,
		ProgressEvery: s.cfg.ProgressEvery,
		OnProgress: func(p atpg.Progress) {
			j.storeProgress(p)
			s.jobProgress.With(j.meta.ID).Set(int64(1000 * p.Coverage()))
		},
	}
	opt := jobRunOptions(tel, time.Duration(j.meta.BudgetNS), nil, nil)
	journal, resume, err := checkpoint.Open(j.ckptPath(), true, c, faults, opt, checkpoint.Options{})
	if err != nil {
		s.jobsCompleted.With(StateFailed).Inc()
		_ = j.setState(StateFailed, fmt.Sprintf("checkpoint: %v", err))
		return
	}
	opt.Resume = resume
	opt.Journal = journal
	if s.testHookJournal != nil {
		opt.Journal = s.testHookJournal(journal)
	}
	resumed := 0
	if resume != nil {
		resumed = len(resume.Faults)
	}

	eng := &atpg.Engine{Workers: s.cfg.EngineWorkers}
	sum, runErr := eng.RunFaults(ctx, c, faults, opt)
	s.jobProgress.Forget(j.meta.ID)

	// The journal must be durable before the job reports any outcome —
	// on every path, including cancellation and engine errors.
	if cerr := journal.Close(); cerr != nil {
		// A sticky journal error degraded the run to uncheckpointed; the
		// in-memory results are still valid, so the job itself proceeds.
		s.logf("job %s: checkpoint journal: %v", j.meta.ID, cerr)
	}

	// Each terminal transition is counted before it is published, so a
	// client that observes the state also finds it in /metrics.
	switch {
	case runErr == nil:
		res := buildResult(sum, resumed)
		if err := writeResult(j, res); err != nil {
			s.jobsCompleted.With(StateFailed).Inc()
			_ = j.setState(StateFailed, fmt.Sprintf("persist result: %v", err))
			return
		}
		s.jobsCompleted.With(StateDone).Inc()
		_ = j.setState(StateDone, "")
	case errors.Is(runErr, context.DeadlineExceeded):
		s.jobsCompleted.With(StateFailed).Inc()
		_ = j.setState(StateFailed, fmt.Sprintf("job deadline (%s) exceeded", time.Duration(j.meta.DeadlineNS)))
	case errors.Is(runErr, context.Canceled):
		j.mu.Lock()
		byUser := j.userCancel
		j.mu.Unlock()
		if byUser {
			s.jobsCompleted.With(StateCanceled).Inc()
			_ = j.setState(StateCanceled, "")
		}
		// Otherwise this is a drain: the job stays persisted as
		// StateRunning with its journal synced, exactly the shape the
		// restart scan resumes from. No terminal transition.
	default:
		s.jobsCompleted.With(StateFailed).Inc()
		_ = j.setState(StateFailed, runErr.Error())
	}
}

// buildResult converts an engine summary into the durable result form.
func buildResult(sum *atpg.Summary, resumed int) *JobResult {
	res := &JobResult{
		Schema:        jobResultSchema,
		Circuit:       sum.Circuit,
		Faults:        sum.Total,
		Detected:      sum.Detected,
		DetectedByRPT: sum.DetectedByRPT,
		Untestable:    sum.Untestable,
		Aborted:       sum.Aborted,
		Errors:        sum.Errors,
		Coverage:      sum.Coverage(),
		Vectors:       make([]string, len(sum.Vectors)),
		SATTimeNS:     sum.Phases.Solve.Nanoseconds(),
		WallNS:        sum.WallElapsed.Nanoseconds(),
		Resumed:       resumed,
	}
	for i, v := range sum.Vectors {
		res.Vectors[i] = checkpoint.EncodeVector(v)
	}
	return res
}

// writeResult persists result.json (tmp+rename).
func writeResult(j *job, res *JobResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	tmp := j.resultPath() + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, j.resultPath())
}
