package atpg

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atpgeasy/internal/faultsim"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

// Status classifies the outcome of test generation for one fault.
type Status int8

// Per-fault outcomes.
const (
	Detected   Status = iota // a test vector was found and verified
	Untestable               // the ATPG-SAT instance is unsatisfiable
	Aborted                  // resource limit hit before a decision
	Errored                  // the fault's processing panicked; run continued
)

// String returns "detected", "untestable", "aborted" or "error".
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Errored:
		return "error"
	default:
		return "aborted"
	}
}

// ParseStatus inverts Status.String, for replaying journaled verdicts.
func ParseStatus(s string) (Status, bool) {
	switch s {
	case "detected":
		return Detected, true
	case "untestable":
		return Untestable, true
	case "aborted":
		return Aborted, true
	case "error":
		return Errored, true
	}
	return 0, false
}

// Result is the outcome of test generation for one fault.
type Result struct {
	Fault  Fault
	Status Status
	// Vector is the test over the parent circuit's primary inputs (valid
	// when Status is Detected).
	Vector []bool
	// Vars and Clauses are the ATPG-SAT instance size — the x-axis of
	// Figure 1 of the paper.
	Vars    int
	Clauses int
	// Elapsed is the SAT-solving wall time, Figure 1's y-axis.
	Elapsed time.Duration
	// BuildElapsed is the formula-encoding wall time preceding the solve
	// (for a region group: encoding and loading the shared formula).
	BuildElapsed time.Duration
	// SolverStats carries the solver's search counters.
	SolverStats sat.Stats
	// Group and GroupSize identify the region group the fault was solved
	// in: Group is the 1-based canonical group id (stable across worker
	// counts; 0 on a TestFault result) and GroupSize the group's member
	// count. For grouped faults Vars/Clauses report the shared group
	// formula, counted once per member.
	Group     int
	GroupSize int
	// Err and Stack describe the recovered panic of an Errored fault: the
	// panic value and the goroutine stack captured at recovery.
	Err   string
	Stack string
}

// Engine generates tests fault by fault. The zero value solves in region
// groups on the incremental CDCL core (see RunOptions.GroupMax) on a pool
// of GOMAXPROCS workers. An Engine is read-only during a run, so one
// Engine is safe for concurrent runs.
type Engine struct {
	// Workers is the number of concurrent fault workers used by Run and
	// RunFaults; 0 means runtime.GOMAXPROCS(0), 1 forces the serial path.
	Workers int

	// testHook, when set by a test, is called with each live group member
	// just before it is decided, and with the plan's per-fault budget
	// (0 = none). It may panic, exercising the per-fault panic barrier
	// without planting bugs in production code, and a member it reports
	// true for is Aborted in place of its solve.
	testHook func(f Fault, budget time.Duration) (abort bool)
	// memCheckEvery overrides the memory watchdog's sampling period in
	// tests (0 = the production 250ms).
	memCheckEvery time.Duration
}

// maxConflicts bounds every CDCL solve the engine runs, so no fault can
// search forever even without a per-fault budget.
const maxConflicts = 10_000_000

// workerScratch is one worker's allocation arena. A worker processes
// thousands of faults serially, so the incremental solver's buffers, the
// formula encoder's node maps and clause slab and the fault-simulation
// pack/simulate buffers are reused across them instead of being
// reallocated per fault. Verdicts and vectors never depend on the reuse
// (see sat.Incremental's determinism contract).
type workerScratch struct {
	inc  *sat.Incremental
	enc  *formulaEncoder
	pack []uint64
	sim  *faultsim.Simulator
	// eff is the worker's effort-record encoding buffer, reused across
	// faults so an enabled effort log adds no per-fault allocations.
	eff effortEncoder
	// live and liveAt are solveGroup's member buffers.
	live   []Fault
	liveAt []int
}

// newScratch returns a fresh per-worker scratch for circuit c.
func newScratch(c *logic.Circuit) *workerScratch {
	return &workerScratch{inc: &sat.Incremental{MaxConflicts: maxConflicts}, enc: newFormulaEncoder(c)}
}

// simulator loads n packed patterns into the worker's fault simulator,
// creating it on first use.
func (ws *workerScratch) simulator(c *logic.Circuit, words []uint64, n int) (*faultsim.Simulator, error) {
	if ws.sim == nil {
		sim, err := faultsim.NewSimulator(c, words, n)
		ws.sim = sim
		return sim, err
	}
	return ws.sim, ws.sim.Reset(words, n)
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// TestFault runs SAT-based test generation for one fault — Figure 1's
// per-instance path: it encodes the fault's ungated ATPG-SAT formula and
// solves it one-shot on sat.DPLL.
func (e *Engine) TestFault(c *logic.Circuit, f Fault) (Result, error) {
	enc := newFormulaEncoder(c)
	res := Result{Fault: f}
	start := time.Now()
	formula, err := enc.encode([]Fault{f}, false)
	res.BuildElapsed = time.Since(start)
	if err != nil {
		return res, err
	}
	if formula == nil {
		res.Status = Untestable
		return res, nil
	}
	res.Vars, res.Clauses = formula.NumVars, formula.NumClauses()
	start = time.Now()
	sol := (&sat.DPLL{MaxConflicts: maxConflicts}).Solve(formula)
	res.Elapsed = time.Since(start)
	return res, settle(c, &res, sol, enc)
}

// settle turns a solver answer on the encoder's last formula into the
// fault's verdict: a model becomes a test vector, re-simulated against
// the fault as a cross-check of the whole encode/solve/extract pipeline;
// UNSAT means untestable, anything else aborted.
func settle(c *logic.Circuit, res *Result, sol sat.Solution, enc *formulaEncoder) error {
	res.SolverStats = sol.Stats
	switch sol.Status {
	case sat.Sat:
		res.Status = Detected
		res.Vector = enc.extract(sol.Model)
		if !VerifyTest(c, res.Fault, res.Vector) {
			return fmt.Errorf("atpg: generated vector fails to detect %s (pipeline bug)", res.Fault.Name(c))
		}
	case sat.Unsat:
		res.Status = Untestable
	default:
		res.Status = Aborted
	}
	return nil
}

// Summary aggregates a full-circuit ATPG run.
type Summary struct {
	Circuit    string
	Total      int
	Detected   int
	Untestable int
	Aborted    int
	// Errors counts faults whose processing panicked; the panic was
	// recovered, the fault reported with status "error", and the run
	// continued.
	Errors int
	// DroppedByFaultSim counts faults covered by earlier vectors and
	// skipped without invoking the solver.
	DroppedByFaultSim int
	// WastedSolves counts speculative solves discarded at commit: faults a
	// worker solved in flight that an earlier (dispatch-order) vector then
	// dropped. The deterministic commit discards such results, so they
	// appear nowhere in Results; the count is the price of running workers
	// ahead of the commit frontier. Always 0 on a single worker.
	WastedSolves int
	// DetectedByRPT counts faults detected by the random-pattern pre-phase
	// and never handed to the solver.
	DetectedByRPT int
	// RPTBatches is the number of 64-pattern random batches simulated;
	// RPTVectors the number of random patterns that detected a new fault
	// and were kept (they lead Vectors, in batch then pattern order).
	RPTBatches int
	RPTVectors int
	// Vectors is the generated (compacted) test set, in fault-list order
	// of the detecting fault.
	Vectors [][]bool
	// Results holds the per-fault SAT outcomes for the faults that reached
	// the solver — the data series of Figure 1. Results come back in
	// fault-list order regardless of which worker finished first.
	Results []Result
	// WallElapsed is the wall-clock duration of the whole run.
	WallElapsed time.Duration
	// Phases breaks the run's work down by pipeline phase (summed over
	// faults and workers, so each phase can exceed wall time in parallel).
	// Like SolverTotals, its Build and Solve count only the final attempt
	// of a fault the retry tiers re-ran; the /metrics work counters count
	// every attempt.
	Phases PhaseTimes
	// SolverTotals merges the per-fault solver statistics of every fault
	// that reached the solver.
	SolverTotals sat.Stats
	// Retries describes the escalating-budget retry phase, one entry per
	// tier that ran (nil when retries were disabled or nothing aborted).
	Retries []RetryTier
}

// PhaseTimes is the per-phase work breakdown of a run. The phases
// partition the measured work: each duration is accumulated on a disjoint
// code path (RPT batch simulation, formula encoding, SAT search,
// per-vector drop flushes), so on a single worker their sum is at most
// WallElapsed; in parallel runs Build/Solve/FaultSim sum over workers and
// can exceed it.
type PhaseTimes struct {
	// RPT is the random-pattern pre-phase wall time (it runs before the
	// worker pool starts, so it never overlaps the other phases).
	RPT time.Duration `json:"rpt_ns"`
	// Build is formula-encoding time (for region groups, encoding plus
	// loading the incremental instance).
	Build time.Duration `json:"build_ns"`
	// Solve is SAT search time summed over the faults that reached the
	// solver (each Result's Elapsed). Under a parallel run it exceeds wall
	// time; compare Summary.WallElapsed.
	Solve time.Duration `json:"solve_ns"`
	// FaultSim is the time spent fault-simulating each committed vector
	// against the uncommitted faults to drop the ones it detects.
	FaultSim time.Duration `json:"faultsim_ns"`
	// FrontierStall is commit-frontier stall time: how long the
	// deterministic commit order sat blocked on one in-flight solve while
	// later results waited published behind it. Unlike the phases above
	// it is idle time, not work — it overlaps Solve rather than
	// partitioning the run, and is 0 on a single worker (the frontier
	// then only ever advances behind the worker's own publishes).
	FrontierStall time.Duration `json:"frontier_stall_ns"`
}

// Coverage returns detected/(total-untestable): fault coverage over
// testable faults, counting faults dropped by fault simulation and
// detected by the random-pattern pre-phase as covered.
func (s Summary) Coverage() float64 {
	testable := s.Total - s.Untestable
	if testable == 0 {
		return 1
	}
	return float64(s.Detected+s.DroppedByFaultSim+s.DetectedByRPT) / float64(testable)
}

// Random-pattern pre-phase parameters: DefaultRPTBatches is the standard
// flow's RunOptions.RPTBatches, and every run stops the phase after
// DefaultRPTIdleStop consecutive batches that detect nothing new. 32
// batches of 64 patterns saturate the easy faults of every generated
// benchmark circuit; 4 idle batches is enough slack that the phase does
// not give up on a cold streak while the fault list is still shrinking
// fast.
const (
	DefaultRPTBatches  = 32
	DefaultRPTIdleStop = 4
)

// RunOptions control a full-circuit run.
type RunOptions struct {
	// Collapse applies structural fault collapsing (gate-local
	// equivalence) before generation.
	Collapse bool
	// Dominance additionally applies dominance-based collapsing
	// (CollapseDominance) on top of equivalence, further shrinking the
	// fault list while keeping every dropped fault covered by its
	// justifier's tests.
	Dominance bool
	// RPTBatches enables the random-pattern pre-phase: up to RPTBatches
	// batches of 64 seeded random patterns are fault-simulated against the
	// whole undetected fault list before any SAT solving; patterns that
	// detect a new fault are kept as test vectors. The phase stops early
	// once the list is empty or DefaultRPTIdleStop consecutive batches
	// detect nothing new. 0 disables the phase (use DefaultRPTBatches for
	// the standard flow).
	RPTBatches int
	// Seed drives the random pattern generator. Runs with the same seed
	// and options produce identical vectors and summaries, regardless of
	// worker count.
	Seed int64
	// DropDetected fault-simulates each committed vector against the rest
	// of the sweep and skips the faults it detects (classic TEGUS flow).
	DropDetected bool
	// PerFaultBudget, when positive, bounds the SAT time spent on each
	// fault; a fault whose solve exceeds it is reported Aborted instead of
	// stalling the run.
	PerFaultBudget time.Duration
	// Telemetry, when non-nil, streams metrics, the run's spans and
	// periodic progress snapshots out of the run. Nil disables metrics and
	// progress; the spans then go only to a private flight recorder.
	Telemetry *Telemetry
	// RetryTiers, when positive together with PerFaultBudget, re-runs
	// faults that exhausted their budget after the main sweep, up to this
	// many escalation tiers, each with RetryBackoff times the previous
	// tier's budget. A fault is reported Aborted only after the final tier
	// also fails.
	RetryTiers int
	// MemSoftLimit, when positive, arms a watchdog that samples the Go
	// heap and — while it exceeds this many bytes — has each worker halve
	// its learned-clause budget (sat.Incremental.ShrinkLearned) between
	// faults, degrading clause reuse instead of letting the process grow
	// toward an OOM kill.
	MemSoftLimit int64
	// Journal, when non-nil, receives every final fault verdict and the
	// random-pattern pre-phase outcome as they are decided — the engine
	// side of the crash-recovery checkpoint (see internal/checkpoint).
	// Faults headed for the retry queue are journaled only once final.
	Journal JournalSink
	// Resume replays a previous run's journal: a journaled pre-phase is
	// restored instead of re-run, and each journaled verdict is adopted
	// at its own plan position, where its vector drops faults again — so
	// drops are re-derived, not journaled, and the vector set is preserved.
	Resume *ResumeState
	// EffortLog, when non-nil, streams one structured effort record per
	// fault verdict — structural features joined with the solver work the
	// verdict took (schema EffortSchema; see EffortRecord for the exact
	// per-phase emission rule). Nil disables the log at the cost of one
	// pointer check per fault.
	EffortLog *EffortLog
	// GroupMax caps the members per region group (0 = DefaultGroupMax,
	// 1 = fresh-per-fault). The engine solves the faults of each fanout
	// region as one group on a persistent per-worker CDCL instance under
	// assumptions (sat.Incremental), so clauses learned for one fault
	// prune the search for its region neighbors. GroupMax is purely a
	// knowledge-reuse knob: the dispatch order, drop set, verdicts and
	// vectors are identical for every value.
	GroupMax int
}

// DefaultRunOptions returns the standard flow that the facade's RunATPG,
// the atpg command's flag defaults and atpgd's jobs start from:
// equivalence and dominance collapsing, the seeded random-pattern
// pre-phase at DefaultRPTBatches, fault dropping, and DefaultRetryTiers
// escalation tiers for faults that exhaust a PerFaultBudget the caller
// sets. GroupMax is left 0 (DefaultGroupMax).
func DefaultRunOptions() RunOptions {
	return RunOptions{
		Collapse:     true,
		Dominance:    true,
		RPTBatches:   DefaultRPTBatches,
		Seed:         1,
		DropDetected: true,
		RetryTiers:   DefaultRetryTiers,
	}
}

// Run generates tests for every stuck-at fault of the circuit.
func (e *Engine) Run(ctx context.Context, c *logic.Circuit, opt RunOptions) (*Summary, error) {
	faults := AllFaults(c)
	if opt.Collapse {
		faults = Collapse(c, faults)
	}
	if opt.Dominance {
		faults = CollapseDominance(c, faults)
	}
	return e.RunFaults(ctx, c, faults, opt)
}

// RunFaults generates tests for the given fault list on a pool of
// e.Workers workers. Dispatch is contention-free: faults are laid out
// in fanout-region groups in largest-fanout-cone-first order and claimed
// a group at a time off an atomic cursor, solved speculatively, and
// committed by a deterministic frontier that walks the dispatch order.
// With opt.DropDetected the frontier fault-simulates each committed
// vector against the uncommitted tail at once (drop marks live in an
// atomic bitset read lock-free by claims): a fault is dropped iff a
// vector at an earlier plan position detects it, so the whole summary is
// identical at any worker count, and a resume that replays journaled
// verdicts through the frontier reproduces it too.
//
// Cancelling ctx drains the run: in-flight solves abort at the next limit
// check, no new faults are claimed, and the partial summary is returned
// together with ctx.Err(). Faults interrupted by cancellation are not
// recorded as Aborted — that status is reserved for per-fault resource
// exhaustion.
func (e *Engine) RunFaults(ctx context.Context, c *logic.Circuit, faults []Fault, opt RunOptions) (*Summary, error) {
	start := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.workers()
	st := &runState{
		c:         c,
		opt:       opt,
		start:     start,
		faults:    faults,
		results:   make([]*Result, len(faults)),
		published: make([]atomic.Pointer[specResult], len(faults)),
		droppedF:  newBitset(len(faults)),
		byRPT:     make([]bool, len(faults)),
		resumed:   make([]bool, len(faults)),
	}
	st.pubHigh.Store(-1)
	st.applyResume(opt.Resume)
	tel := opt.Telemetry
	tel.begin(len(faults), workers)
	st.trace = obs.NewTrace(nil)
	if tel != nil && tel.Trace != nil {
		st.trace = tel.Trace
	}
	// Per-worker scratch arenas are created up front so the RPT pre-phase
	// and the SAT workers share the same fault simulators and buffers;
	// the serial call sites (replay records, the RPT loop's effort
	// records, the final retry bookkeeping) borrow worker 0's.
	scratches := make([]*workerScratch, workers)
	for w := range scratches {
		scratches[w] = newScratch(c)
	}
	if opt.EffortLog != nil {
		es, err := newEffortState(opt.EffortLog, c, faults, workers)
		if err != nil {
			return nil, err
		}
		st.effort = es
		// A replayed pre-phase's detections get their records now, as
		// replayed verdicts get theirs at the commit frontier: this log
		// must still join one record to every decided fault.
		if st.rptRestored {
			for _, i := range st.rptDetectedIdx {
				st.recordEffort(scratches[0], i, nil, "resume", 0, -1)
			}
		}
	}
	runSpan := st.trace.Start("run", obs.SpanContext{})
	runSpan.Detail = c.Name
	runSpan.Items = int64(len(faults))
	st.runSpan = runSpan.Context()
	defer runSpan.End()
	stopWatchdog := e.startMemWatchdog(runCtx, st)
	defer stopWatchdog()
	rep := obs.StartReporter(telProgressEvery(tel), func() {
		tel.observeProgress(st.progress())
	})
	if !st.rptRestored {
		rptSpan := st.trace.Start("rpt", st.runSpan)
		st.rptSpan = rptSpan.Context()
		err := e.runRPT(runCtx, st, scratches)
		rptSpan.Items = int64(st.rptDetected)
		rptSpan.End()
		if err != nil {
			rep.Stop()
			return nil, err
		}
		if opt.Journal != nil && runCtx.Err() == nil {
			opt.Journal.RecordRPT(st.rptDetectedIdx, st.rptVectors, st.rptBatches)
		}
	}
	// The sweep plan covers every fault the pre-phase left, journaled
	// verdicts included: it is the uninterrupted run's plan. Grouped
	// orders are canonical across group-size caps, so the commit frontier
	// and drop set are too.
	st.plan = planDispatch(c, faults, st.byRPT, opt.GroupMax, opt.PerFaultBudget)
	tel.observeGroups(st.plan.groups)
	sweepSpan := st.trace.Start("sweep", st.runSpan)
	sweepSpan.Items = int64(len(st.plan.order))
	st.sweepSpan = sweepSpan.Context()
	// Commit the journaled verdicts at the head of the plan before any
	// worker claims a group; a completed journal replays here, solve-free.
	if err := st.kickCommit(scratches[0], 0); err != nil {
		st.setErr(err)
		cancel()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := scratches[w]
			publish := func(p int, res Result) error { return st.publish(ws, w, p, res) }
			if err := e.runPlan(runCtx, st, st.plan, w, ws, st.sweepSpan, publish); err != nil {
				st.setErr(err)
				cancel()
			}
		}()
	}
	wg.Wait()
	// Drain the commit frontier: on a clean run every result is already
	// committed, but a cancelled run may leave published results behind the
	// first unsolved slot — commit the reachable prefix so the partial
	// summary is a deterministic function of how far the run got.
	if err := st.kickCommit(scratches[0], 0); err != nil {
		st.setErr(err)
	}
	sweepSpan.End()
	retries := e.runRetryTiers(runCtx, st, scratches)
	rep.Stop()
	if st.err != nil {
		return nil, st.err
	}
	if tel != nil {
		tel.observeProgress(st.progress()) // final snapshot: the 100% line
	}

	// Assemble deterministically: RPT vectors first (batch then pattern
	// order), then SAT results in fault-list order.
	sum := &Summary{
		Circuit: c.Name, Total: len(faults),
		DroppedByFaultSim: int(st.droppedN.Load()),
		WastedSolves:      int(st.wastedN.Load()),
		DetectedByRPT:     st.rptDetected,
		RPTBatches:        st.rptBatches,
		RPTVectors:        len(st.rptVectors),
	}
	sum.Vectors = append(sum.Vectors, st.rptVectors...)
	for _, r := range st.results {
		if r == nil {
			continue // detected by RPT, dropped by fault simulation, or never reached before cancellation
		}
		sum.Results = append(sum.Results, *r)
		sum.Phases.Build += r.BuildElapsed
		sum.Phases.Solve += r.Elapsed
		sum.SolverTotals.Add(r.SolverStats)
		switch r.Status {
		case Detected:
			sum.Detected++
			sum.Vectors = append(sum.Vectors, r.Vector)
		case Untestable:
			sum.Untestable++
		case Aborted:
			sum.Aborted++
		case Errored:
			sum.Errors++
		}
	}
	sum.Retries = retries
	sum.Phases.RPT = time.Duration(st.rptNS)
	sum.Phases.FaultSim = time.Duration(st.simNS.Load())
	sum.Phases.FrontierStall = time.Duration(st.stallNS.Load())
	sum.WallElapsed = time.Since(start)
	return sum, ctx.Err()
}

// telProgressEvery returns the progress period of a (possibly nil)
// telemetry configuration; 0 disables the reporter.
func telProgressEvery(t *Telemetry) time.Duration {
	if t == nil || t.OnProgress == nil {
		return 0
	}
	return t.ProgressEvery
}

// specResult is one worker's speculative solve, published lock-free and
// adopted (or discarded) by the deterministic commit frontier.
type specResult struct {
	res    Result
	worker int32 // solving worker, for telemetry labels
}

// runState is the state shared by the fault workers of one RunFaults call.
//
// Concurrency layout: the per-fault hot path is lock-free — workers claim
// groups off the plan's atomic cursor, read drop bits from the
// atomic bitset, and publish results through atomic pointers. commitMu
// guards the only serialized section, the commit frontier (verdict
// adoption, vector keeping, flush simulation, journaling); workers never
// block on it (kickCommit uses TryLock — whoever holds the lock picks up
// newly published results). mu is left guarding only the cold state: the RPT
// pre-phase tallies and the first worker error.
type runState struct {
	c      *logic.Circuit
	opt    RunOptions
	start  time.Time
	faults []Fault

	// plan is the sweep's dispatch plan: its order is the commit order.
	plan      *dispatchPlan
	droppedF  bitset                       // officially dropped by a committed vector's flush
	byRPT     []bool                       // detected by the pre-phase, run or restored: the sweep skips these
	published []atomic.Pointer[specResult] // speculative solves and replayed verdicts, one slot per fault
	resumed   []bool                       // replayed from a journal: never solved, dropped or retried
	// pubHigh is the highest plan position published so far (-1 before
	// the first); the stall clock runs only while it is past the frontier.
	pubHigh atomic.Int64

	// Commit frontier state, all under commitMu.
	commitMu    sync.Mutex
	commitDirty atomic.Bool
	frontier    int       // next position in plan.order to commit
	results     []*Result // adopted results, one slot per fault; final once decided

	// Final-verdict tallies, written by decide and resume replay, read
	// lock-free by progress snapshots.
	doneN, detN, untN, abtN, errsN atomic.Int64
	droppedN                       atomic.Int64 // flush drops only; RPT detections count separately
	wastedN                        atomic.Int64 // speculative solves discarded at commit

	mu  sync.Mutex
	err error

	// Random-pattern pre-phase outcome. Written by runRPT's serial loop
	// before the worker pool starts; the per-batch counters are updated
	// under mu so progress snapshots see them live.
	rptDetected    int
	rptBatches     int
	rptVectors     [][]bool
	rptDetectedIdx []int // fault-list indices detected by the pre-phase
	rptNS          int64
	// rptRestored marks the pre-phase as replayed from a journal; runRPT
	// is then skipped so the kept vector set stays exactly the journaled one.
	rptRestored bool

	// shrinkGen is bumped by the memory watchdog while the heap exceeds
	// the soft limit; workers compare it to a local counter between faults
	// and halve their learned-clause budget when it advanced.
	shrinkGen atomic.Int64

	// simNS accumulates fault-simulation flush time.
	simNS atomic.Int64

	// trace records every run-level event as a span: Telemetry.Trace when
	// set, otherwise a run-private record-only trace. Its flight recorder
	// is dumped to stderr on the run's first fault panic (dumped).
	trace  *obs.Trace
	dumped atomic.Bool

	// effort is the enabled effort log's run state (features + sink);
	// nil when RunOptions.EffortLog is nil.
	effort *effortState

	// Span contexts of the run's phase spans, for attaching children.
	runSpan, rptSpan, sweepSpan obs.SpanContext

	// Commit-frontier stall accounting, under commitMu: stallSince is
	// when the frontier was first observed blocked at plan position
	// stallSlot with a later result already published (zero when not
	// stalled); stallNS accumulates resolved stalls for
	// Summary.Phases.FrontierStall.
	stallSlot  int
	stallSince time.Time
	stallNS    atomic.Int64
}

// dumpOnce prints the flight recorder to stderr on the run's first fault
// panic; later panics print nothing, so a burst of them costs one dump.
// SIGINT dumps are the CLI's own, from the Telemetry.Trace it passes.
func (st *runState) dumpOnce() {
	if st.dumped.Swap(true) {
		return
	}
	fmt.Fprintln(os.Stderr, "atpg: fault panic recovered — dumping flight recorder")
	st.trace.Dump(os.Stderr, 0)
}

// progress snapshots the run: worker-phase tallies from the commit
// atomics, pre-phase tallies under the cold mutex.
func (st *runState) progress() Progress {
	st.mu.Lock()
	rptDetected, rptVectors := st.rptDetected, len(st.rptVectors)
	st.mu.Unlock()
	det := int(st.detN.Load())
	return Progress{
		Circuit:     st.c.Name,
		Done:        int(st.doneN.Load()+st.droppedN.Load()) + rptDetected,
		Total:       len(st.faults),
		Detected:    det,
		Untestable:  int(st.untN.Load()),
		Aborted:     int(st.abtN.Load()),
		Errors:      int(st.errsN.Load()),
		Dropped:     int(st.droppedN.Load()),
		RPTDetected: rptDetected,
		Vectors:     det + rptVectors,
		Elapsed:     time.Since(st.start),
	}
}

// tally counts one final verdict in the Progress tallies: a decided one
// (decide) or one replayed from a journal (commitLocked).
func (st *runState) tally(s Status) {
	st.doneN.Add(1)
	switch s {
	case Detected:
		st.detN.Add(1)
	case Untestable:
		st.untN.Add(1)
	case Aborted:
		st.abtN.Add(1)
	case Errored:
		st.errsN.Add(1)
	}
}

// decide makes fault i's verdict final, and is the only code that does:
// it tallies the verdict for Progress, counts it in the /metrics verdict
// counters, journals it and writes its effort record. The sweep's commit
// frontier calls it for every verdict not headed for a retry tier; the
// retry phase calls it for every tier verdict that is not Aborted and,
// after the last tier of a run that was not cancelled, for every fault
// still Aborted. Calls for one fault never overlap: the frontier holds
// commitMu, and a tier slot belongs to the one worker that claimed it.
func (st *runState) decide(ws *workerScratch, i int, res *Result, phase string, tier, worker int) {
	st.tally(res.Status)
	st.opt.Telemetry.observeVerdict(res)
	if st.opt.Journal != nil {
		st.opt.Journal.RecordFault(i, res.Status.String(), res.Vector, res.Err)
	}
	if st.effort != nil {
		st.recordEffort(ws, i, res, phase, tier, worker)
	}
}

func (st *runState) setErr(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

// runRPT is the random-pattern pre-phase: seeded 64-pattern batches are
// fault-simulated against the whole undetected fault list, sharded across
// the workers' simulators; patterns that detect a new fault are kept as
// test vectors and the detected faults never reach the solver. Before
// each batch the phase checks its stop rule: it stops once opt.RPTBatches
// batches have run, the live list is empty, or the last
// DefaultRPTIdleStop batches detected nothing. Pattern words come from
// one seeded RNG in batch order, and a fault's detection mask depends
// only on the circuit and those words, so the kept vector set and the
// surviving fault list are identical for any worker count.
func (e *Engine) runRPT(ctx context.Context, st *runState, scratches []*workerScratch) error {
	opt := st.opt
	if opt.RPTBatches <= 0 || len(st.faults) == 0 {
		return nil
	}
	phaseStart := time.Now()
	rng := rand.New(rand.NewSource(opt.Seed))
	c := st.c

	// The live fault list in fault-list order: indices into st.faults
	// and the nets and stuck-at values the shards simulate.
	live := make([]int, 0, len(st.faults))
	nets := make([]int, 0, len(st.faults))
	sas := make([]bool, 0, len(st.faults))
	for i, f := range st.faults {
		if st.resumed[i] {
			continue // already decided by a resumed journal
		}
		live = append(live, i)
		nets = append(nets, f.Net)
		sas = append(sas, f.StuckAt)
	}
	words := make([]uint64, len(c.Inputs))
	masks := make([]uint64, len(live))
	errs := make([]error, len(scratches))
	var wg sync.WaitGroup
	for idle := 0; st.rptBatches < opt.RPTBatches && len(live) > 0 && idle < DefaultRPTIdleStop && ctx.Err() == nil; {
		started := time.Now()
		span := st.trace.Start("rpt-batch", st.rptSpan)
		for i := range words {
			words[i] = rng.Uint64()
		}
		// Shard the live list across the workers' simulators. Each shard
		// writes its slice of masks; full masks (not early-exit) because
		// the greedy keep below needs every detecting pattern.
		n := len(live)
		chunk := (n + len(scratches) - 1) / len(scratches)
		for w, ws := range scratches {
			lo, hi := w*chunk, min((w+1)*chunk, n)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sim, err := ws.simulator(c, words, 64)
				if errs[w] = err; err == nil {
					sim.DetectAll(nets[lo:hi], sas[lo:hi], masks[lo:hi], false)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		if ctx.Err() != nil {
			break // a cancelled batch is discarded uncounted, span and all
		}
		// Greedy pattern keep, in fault-list order: a fault whose mask
		// misses every kept pattern contributes its lowest detecting
		// pattern, so every detected fault is covered by a kept pattern.
		var kept uint64
		for _, m := range masks[:n] {
			if m != 0 && m&kept == 0 {
				kept |= 1 << uint(bits.TrailingZeros64(m))
			}
		}
		var newVecs [][]bool
		for p := 0; p < 64; p++ {
			if kept&(1<<uint(p)) == 0 {
				continue
			}
			vec := make([]bool, len(c.Inputs))
			for i := range vec {
				vec[i] = words[i]&(1<<uint(p)) != 0
			}
			newVecs = append(newVecs, vec)
		}
		// Record the detections and compact the live list down to the
		// survivors in place.
		preDet := len(st.rptDetectedIdx)
		st.mu.Lock()
		nw := 0
		for k, m := range masks[:n] {
			if m != 0 {
				st.byRPT[live[k]] = true
				st.rptDetectedIdx = append(st.rptDetectedIdx, live[k])
				continue
			}
			live[nw], nets[nw], sas[nw] = live[k], nets[k], sas[k]
			nw++
		}
		detected := n - nw
		st.rptDetected += detected
		st.rptBatches++
		st.rptVectors = append(st.rptVectors, newVecs...)
		st.mu.Unlock()
		live, nets, sas = live[:nw], nets[:nw], sas[:nw]
		if st.effort != nil {
			// This loop is the only rptDetectedIdx writer, so the slice
			// tail past preDet is exactly this batch's detections.
			for _, i := range st.rptDetectedIdx[preDet:] {
				st.recordEffort(scratches[0], i, nil, "rpt", 0, -1)
			}
		}
		span.Items = int64(detected)
		span.Detail = "kept-" + strconv.Itoa(len(newVecs))
		span.End()
		opt.Telemetry.observeRPTBatch(detected, len(newVecs), time.Since(started))
		if detected == 0 {
			idle++
		} else {
			idle = 0
		}
	}
	st.mu.Lock()
	st.rptNS = time.Since(phaseStart).Nanoseconds()
	st.mu.Unlock()
	return nil
}

// passedDropped fills a dropped fault's slot once the frontier passes it.
var passedDropped = new(specResult)

// publish is the sweep's emit: it hands the speculative solve at plan
// position p to the commit frontier — or, when a flush dropped the fault
// while it was in flight, discards it as wasted (the official verdict is
// "dropped") — and then offers to advance the frontier. Exactly one of
// publish and the frontier counts a wasted solve, whoever fills the slot.
func (st *runState) publish(ws *workerScratch, worker, p int, res Result) error {
	i := int(st.plan.order[p])
	if st.droppedF.get(i) || !st.published[i].CompareAndSwap(nil, &specResult{res: res, worker: int32(worker)}) {
		st.countWasted(1)
		if st.effort != nil {
			st.recordEffort(ws, i, &res, "dropped", 0, worker)
		}
		return nil
	}
	for {
		h := st.pubHigh.Load()
		if int64(p) <= h || st.pubHigh.CompareAndSwap(h, int64(p)) {
			break
		}
	}
	return st.kickCommit(ws, worker)
}

// countWasted tallies speculative solves discarded because a committed
// vector dropped the fault first.
func (st *runState) countWasted(n int) {
	st.wastedN.Add(int64(n))
	if tel := st.opt.Telemetry; tel != nil && tel.Metrics != nil {
		tel.Metrics.SolvesWasted.Add(int64(n))
	}
}

// kickCommit offers to advance the deterministic commit frontier. Every
// publisher calls it after storing a result; the dirty-flag/TryLock
// pairing makes the section effectively single-threaded without ever
// blocking a worker. No publish can be missed: a caller that loses the
// TryLock has already set the flag, the holder clears it before each
// scan, and re-checks it after unlocking — so either the holder's scan
// observes the publish, or the flag survives and someone re-enters.
func (st *runState) kickCommit(ws *workerScratch, worker int) error {
	st.commitDirty.Store(true)
	for st.commitDirty.Load() {
		if !st.commitMu.TryLock() {
			return nil // the current holder will observe the flag
		}
		st.commitDirty.Store(false)
		err := st.commitLocked(ws, worker)
		st.commitMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// commitLocked walks the dispatch order from the frontier, adopting each
// slot's published result, in order: its solver work is observed and,
// unless it is an abort headed for the retry tiers, decide makes it
// final (a verdict replayed from a journal is only tallied and
// recorded); with DropDetected each adopted vector is flushed at once —
// so the order of verdicts, journal and effort records, and the entire
// drop set, is a deterministic function of the dispatch order alone. A
// slot whose solve is still in flight blocks the frontier; a dropped slot
// gets its clean-drop record and is skipped, discarding any speculative
// result as wasted. Called with commitMu held.
func (st *runState) commitLocked(ws *workerScratch, worker int) error {
	tel := st.opt.Telemetry
	retryable := st.opt.RetryTiers > 0 && st.opt.PerFaultBudget > 0
	order := st.plan.order
	for st.frontier < len(order) {
		i := int(order[st.frontier])
		if st.droppedF.get(i) {
			if sr := st.published[i].Swap(passedDropped); sr != nil {
				st.countWasted(1)
				if st.effort != nil {
					st.recordEffort(ws, i, &sr.res, "dropped", 0, int(sr.worker))
				}
			}
			// Fault simulation decided the fault: its one non-wasted
			// record carries no solver work.
			if st.effort != nil {
				st.recordEffort(ws, i, nil, "dropped", 0, -1)
			}
			st.frontier++
			continue
		}
		sr := st.published[i].Load()
		if sr == nil {
			// Frontier blocked on an in-flight solve. It only stalls once a
			// later result is waiting behind it: start the clock on the
			// first such observation of this slot.
			if st.pubHigh.Load() > int64(st.frontier) && (st.stallSlot != st.frontier || st.stallSince.IsZero()) {
				st.stallSlot, st.stallSince = st.frontier, time.Now()
			}
			return nil
		}
		if st.stallSlot == st.frontier && !st.stallSince.IsZero() {
			stall := time.Since(st.stallSince)
			st.stallSince = time.Time{}
			st.stallNS.Add(stall.Nanoseconds())
			tel.observeStall(stall)
			st.trace.Observed("frontier-stall", st.sweepSpan, stall, worker, st.faults[i].Name(st.c))
		}
		st.frontier++
		res := sr.res
		st.results[i] = &res
		if st.resumed[i] {
			st.tally(res.Status)
			if st.effort != nil {
				st.recordEffort(ws, i, &res, "resume", 0, -1)
			}
		} else {
			tel.observeAttempt(int(sr.worker), 0, &res)
			// An abort headed for the retry queue is not final yet:
			// journaling it now would make a resume skip a fault the
			// tiers might still decide.
			if res.Status != Aborted || !retryable {
				st.decide(ws, i, &res, "sweep", 0, int(sr.worker))
			}
		}
		if res.Status == Detected && st.opt.DropDetected {
			if err := st.flushLocked(ws, worker, res.Vector); err != nil {
				return err
			}
		}
	}
	return nil
}

// settled reports whether sweep fault i needs no solve: it was dropped,
// or its verdict was replayed from a journal.
func (st *runState) settled(i int) bool {
	return st.resumed[i] || st.droppedF.get(i)
}

// flushLocked fault-simulates the vector just committed against the
// uncommitted tail of the dispatch order and sets the drop bits of the
// faults it detects; replayed verdicts are final and never dropped.
// Called with commitMu held. The atomic bitset is the only state shared
// with the claim path, so flushes never make claims wait — and the flush
// allocates nothing: the pack buffer and the simulator are reused from
// the scratch.
func (st *runState) flushLocked(ws *workerScratch, worker int, vec []bool) error {
	simStart := time.Now()
	span := st.trace.Start("flush", st.sweepSpan)
	var err error
	ws.pack, err = faultsim.PackPatternsInto(ws.pack, st.c, [][]bool{vec})
	if err != nil {
		return err
	}
	sim, err := ws.simulator(st.c, ws.pack, 1)
	if err != nil {
		return err
	}
	dropped := 0
	order := st.plan.order
	for p := st.frontier; p < len(order); p++ {
		j := int(order[p])
		if st.settled(j) {
			continue
		}
		if sim.DetectsAny(st.faults[j].Net, st.faults[j].StuckAt) != 0 && st.droppedF.set(j) {
			dropped++
		}
	}
	st.droppedN.Add(int64(dropped))
	simTime := time.Since(simStart)
	st.simNS.Add(simTime.Nanoseconds())
	span.Worker, span.Items = worker, int64(dropped)
	span.End()
	st.opt.Telemetry.observeFlush(dropped, simTime)
	return nil
}
