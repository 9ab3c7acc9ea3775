package atpg

import (
	"fmt"
	"strconv"
	"time"

	"atpgeasy/internal/obs"
)

// Telemetry bundles the observability sinks of one engine run. Every
// field is optional; a nil *Telemetry (the default) disables metrics and
// progress, and the run records its spans only in a private flight
// recorder (see Trace).
type Telemetry struct {
	// Metrics receives atomic counter/gauge/histogram updates; build one
	// over an obs.Registry with NewMetrics.
	Metrics *Metrics
	// Trace is the run's event record. The engine records every run-level
	// event on it once, as a span: run → phase (rpt, sweep) → group or
	// rpt-batch, plus a flush span per Detected vector the commit
	// frontier adopts (items: the faults it dropped) and a frontier-stall
	// span per commit-frontier stall (detail: the fault it waited on).
	// Its flight recorder keeps the newest spans and is printed to stderr
	// on the run's first fault panic; a Trace with a writer also writes
	// each span as a "kind":"span" line. Nil gives the run a private
	// record-only trace. Per-fault outcomes go to the effort log
	// (RunOptions.EffortLog), not here.
	Trace *obs.Trace
	// ProgressEvery, when positive together with OnProgress, invokes
	// OnProgress with a run snapshot on that period. Regardless of the
	// period, OnProgress (if set) is called once more when the run ends.
	ProgressEvery time.Duration
	OnProgress    func(Progress)
}

// Progress is a point-in-time snapshot of a running RunFaults call.
type Progress struct {
	Circuit string
	// Done counts faults with a final verdict: solved (detected,
	// untestable, aborted or errored), dropped-by-simulation, or detected
	// by the random-pattern pre-phase. A fault is done once the commit
	// frontier adopts it, after its last escalated attempt.
	Done, Total                            int
	Detected, Untestable, Aborted, Dropped int
	// Errors counts faults whose processing panicked (recovered, run
	// continued).
	Errors int
	// RPTDetected counts faults detected by the random-pattern pre-phase.
	RPTDetected int
	Vectors     int
	Elapsed     time.Duration
}

// Coverage returns the running fault coverage over testable faults,
// counting dropped and RPT-detected faults as covered.
func (p Progress) Coverage() float64 {
	testable := p.Total - p.Untestable
	if testable == 0 {
		return 1
	}
	return float64(p.Detected+p.Dropped+p.RPTDetected) / float64(testable)
}

// ETA linearly extrapolates the remaining wall time from the rate so
// far; zero until at least one fault is done.
func (p Progress) ETA() time.Duration {
	remaining := p.Total - p.Done
	if p.Done == 0 || remaining <= 0 {
		return 0
	}
	per := float64(p.Elapsed) / float64(p.Done)
	return time.Duration(per * float64(remaining)).Round(time.Millisecond)
}

// String renders the standard one-line progress report.
func (p Progress) String() string {
	return fmt.Sprintf("%d/%d faults (%.1f%%)  detected %d  rpt %d  dropped %d  untestable %d  aborted %d  coverage %.1f%%  elapsed %v  eta %v",
		p.Done, p.Total, 100*float64(p.Done)/float64(max(p.Total, 1)),
		p.Detected, p.RPTDetected, p.Dropped, p.Untestable, p.Aborted,
		100*p.Coverage(), p.Elapsed.Round(time.Millisecond), p.ETA())
}

// Metrics is the engine's metric set over an obs.Registry. The verdict
// counters (faults done/detected/untestable/aborted/errored, panics,
// vectors) move once per final verdict, and the work counters (phase
// times, solver counters, the per-fault histograms) once per solved
// result the commit frontier adopts, whose work covers every escalated
// attempt — so both agree with the Summary. Nothing is updated inside
// the solver's search loop.
type Metrics struct {
	FaultsTotal *obs.Gauge // faults in the current run
	Workers     *obs.Gauge

	FaultsDone       *obs.Counter
	FaultsDetected   *obs.Counter
	FaultsUntestable *obs.Counter
	FaultsAborted    *obs.Counter
	FaultsErrored    *obs.Counter
	FaultsDropped    *obs.Counter
	RPTDetected      *obs.Counter
	RPTBatches       *obs.Counter
	Vectors          *obs.Counter
	// SolvesWasted counts speculative solves discarded at commit because
	// an earlier vector dropped the fault (see Summary.WastedSolves).
	SolvesWasted *obs.Counter

	// FrontierStallNS accumulates commit-frontier stall time: wall time
	// the deterministic commit order spent blocked on one in-flight solve
	// while later results sat published behind it (PR 6 left this dark).
	// HistFrontierStall is the per-adoption stall distribution.
	FrontierStallNS   *obs.Counter
	HistFrontierStall *obs.Histogram

	// Resilience counters: recovered per-fault panics and budget
	// escalation broken down by tier (derived from the adopted results'
	// Tier, like Summary.Retries).
	FaultPanics    *obs.Counter
	RetryAttempts  *obs.LabeledCounter
	RetryRecovered *obs.LabeledCounter

	PhaseRPTNS      *obs.Counter
	PhaseBuildNS    *obs.Counter
	PhaseSolveNS    *obs.Counter
	PhaseFaultSimNS *obs.Counter

	SolverDecisions    *obs.Counter
	SolverPropagations *obs.Counter
	SolverConflicts    *obs.Counter

	// Incremental region-grouped solving: clauses alive at call start,
	// retained clauses used on conflict-analysis chains, and the largest
	// per-worker learned-clause database (a high-water mark).
	LearnedKept   *obs.Counter
	LearnedReused *obs.Counter
	ClauseDBBytes *obs.Gauge
	HistGroupSize *obs.Histogram

	HistSolveNS *obs.Histogram

	CoveragePermille *obs.Gauge
}

// NewMetrics registers the engine metric set (prefix atpg_) on reg and
// returns it.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		FaultsTotal: reg.Gauge("atpg_faults", "faults in the current run"),
		Workers:     reg.Gauge("atpg_workers", "parallel fault workers"),

		FaultsDone:       reg.Counter("atpg_faults_done_total", "faults with a verdict (solved or dropped)"),
		FaultsDetected:   reg.Counter("atpg_faults_detected_total", "faults with a generated test vector"),
		FaultsUntestable: reg.Counter("atpg_faults_untestable_total", "faults proved untestable"),
		FaultsAborted:    reg.Counter("atpg_faults_aborted_total", "faults aborted on a resource limit"),
		FaultsErrored:    reg.Counter("atpg_faults_errored_total", "faults whose processing panicked (recovered)"),
		FaultsDropped:    reg.Counter("atpg_faults_dropped_total", "faults dropped by fault simulation"),
		RPTDetected:      reg.Counter("atpg_rpt_detected_total", "faults detected by the random-pattern pre-phase"),
		RPTBatches:       reg.Counter("atpg_rpt_batches_total", "random-pattern batches simulated"),
		Vectors:          reg.Counter("atpg_vectors_total", "test vectors generated"),
		SolvesWasted:     reg.Counter("atpg_solves_wasted_total", "speculative solves discarded because the fault was dropped first"),

		FrontierStallNS:   reg.Counter("atpg_frontier_stall_ns_total", "commit-frontier time blocked on an in-flight solve"),
		HistFrontierStall: reg.Histogram("atpg_frontier_stall_ns", "per-adoption commit-frontier stall (log2 ns buckets)"),

		FaultPanics:    reg.Counter("atpg_fault_panics_total", "per-fault panics recovered by the worker barrier"),
		RetryAttempts:  reg.LabeledCounter("atpg_retry_attempts_total", "over-budget faults solved again at an escalated budget", "tier"),
		RetryRecovered: reg.LabeledCounter("atpg_retry_recovered_total", "faults decided at an escalated budget", "tier"),

		PhaseRPTNS:      reg.Counter("atpg_phase_rpt_ns_total", "random-pattern pre-phase time"),
		PhaseBuildNS:    reg.Counter("atpg_phase_build_ns_total", "formula encoding time"),
		PhaseSolveNS:    reg.Counter("atpg_phase_solve_ns_total", "SAT solving time"),
		PhaseFaultSimNS: reg.Counter("atpg_phase_faultsim_ns_total", "commit-frontier fault-simulation time"),

		SolverDecisions:    reg.Counter("atpg_solver_decisions_total", "solver decisions"),
		SolverPropagations: reg.Counter("atpg_solver_propagations_total", "unit propagations"),
		SolverConflicts:    reg.Counter("atpg_solver_conflicts_total", "solver conflicts"),

		LearnedKept:   reg.Counter("atpg_learned_kept_total", "learned clauses alive at solver call start (incremental mode)"),
		LearnedReused: reg.Counter("atpg_learned_reused_total", "retained learned clauses used by later conflict analyses"),
		ClauseDBBytes: reg.Gauge("atpg_clause_db_bytes", "largest per-worker learned-clause database, bytes"),
		HistGroupSize: reg.Histogram("atpg_group_size", "region-group member count (log2 buckets)"),

		HistSolveNS: reg.Histogram("atpg_fault_solve_ns", "per-fault SAT solve time (log2 ns buckets)"),

		CoveragePermille: reg.Gauge("atpg_coverage_permille", "running fault coverage over testable faults, ‰"),
	}
}

// begin records the run shape at start time.
func (t *Telemetry) begin(total, workers int) {
	if t == nil || t.Metrics == nil {
		return
	}
	t.Metrics.FaultsTotal.Set(int64(total))
	t.Metrics.Workers.Set(int64(workers))
}

// observeSolve records the solver work of one solved result the commit
// frontier adopts, every escalated attempt included: the phase times,
// the solver counters, the per-fault histograms, and the attempt and
// recovery counts of each tier it reached.
func (t *Telemetry) observeSolve(res *Result) {
	if t == nil || t.Metrics == nil {
		return
	}
	m := t.Metrics
	m.PhaseBuildNS.Add(res.BuildElapsed.Nanoseconds())
	m.PhaseSolveNS.Add(res.Elapsed.Nanoseconds())
	st := res.SolverStats
	m.SolverDecisions.Add(st.Decisions)
	m.SolverPropagations.Add(st.Propagations)
	m.SolverConflicts.Add(st.Conflicts)
	m.LearnedKept.Add(st.LearnedKept)
	m.LearnedReused.Add(st.LearnedReused)
	if st.ClauseDBBytes > 0 {
		m.ClauseDBBytes.SetMax(st.ClauseDBBytes)
	}
	m.HistSolveNS.Observe(res.Elapsed.Nanoseconds())
	for tier := 1; tier <= res.Tier; tier++ {
		m.RetryAttempts.With(strconv.Itoa(tier)).Inc()
	}
	if res.Tier > 0 && res.Status != Aborted {
		m.RetryRecovered.With(strconv.Itoa(res.Tier)).Inc()
	}
}

// observeVerdict counts one final verdict (see runState.decide).
func (t *Telemetry) observeVerdict(res *Result) {
	if t == nil || t.Metrics == nil {
		return
	}
	m := t.Metrics
	m.FaultsDone.Inc()
	switch res.Status {
	case Detected:
		m.FaultsDetected.Inc()
		m.Vectors.Inc()
	case Untestable:
		m.FaultsUntestable.Inc()
	case Aborted:
		m.FaultsAborted.Inc()
	case Errored:
		m.FaultsErrored.Inc()
		m.FaultPanics.Inc()
	}
}

// observeGroups records the region-group size distribution of an
// incremental dispatch order.
func (t *Telemetry) observeGroups(groups []faultGroup) {
	if t == nil || t.Metrics == nil {
		return
	}
	for i := range groups {
		t.Metrics.HistGroupSize.Observe(int64(groups[i].end - groups[i].start))
	}
}

// observeStall records one resolved commit-frontier stall.
func (t *Telemetry) observeStall(d time.Duration) {
	if t == nil || t.Metrics == nil {
		return
	}
	t.Metrics.FrontierStallNS.Add(d.Nanoseconds())
	t.Metrics.HistFrontierStall.Observe(d.Nanoseconds())
}

// observeFaultSim counts the commit frontier's fault-simulation time and
// the faults it dropped.
func (t *Telemetry) observeFaultSim(dropped int, simTime time.Duration) {
	if t == nil || t.Metrics == nil {
		return
	}
	m := t.Metrics
	m.FaultsDone.Add(int64(dropped))
	m.FaultsDropped.Add(int64(dropped))
	m.PhaseFaultSimNS.Add(simTime.Nanoseconds())
}

// observeRPTBatch counts one random-pattern batch: the faults it
// detected, the patterns kept as vectors, and the batch simulation time.
func (t *Telemetry) observeRPTBatch(detected, kept int, simTime time.Duration) {
	if t == nil || t.Metrics == nil {
		return
	}
	m := t.Metrics
	m.FaultsDone.Add(int64(detected))
	m.RPTDetected.Add(int64(detected))
	m.RPTBatches.Inc()
	m.Vectors.Add(int64(kept))
	m.PhaseRPTNS.Add(simTime.Nanoseconds())
}

// observeProgress pushes a snapshot to the progress callback and the
// coverage gauge.
func (t *Telemetry) observeProgress(p Progress) {
	if t == nil {
		return
	}
	if t.Metrics != nil {
		t.Metrics.CoveragePermille.Set(int64(1000 * p.Coverage()))
	}
	if t.OnProgress != nil {
		t.OnProgress(p)
	}
}
