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

	"atpgeasy/internal/cnf"
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
	// Figure 1 of the paper. A grouped fault reports its group's formula,
	// which is encoded over the members still live when a worker claims
	// the group: with fault dropping on, a worker ahead of the commit
	// frontier may encode members an earlier vector then drops, so the
	// sizes can vary with the worker count and timing, while verdicts and
	// vectors do not.
	Vars    int
	Clauses int
	// Elapsed is the SAT-solving wall time, Figure 1's y-axis; for a
	// fault escalated under a budget it covers every attempt.
	Elapsed time.Duration
	// BuildElapsed is the formula-encoding wall time preceding the solve
	// (for a region group: encoding and loading the shared formula).
	BuildElapsed time.Duration
	// LoadElapsed is the part of BuildElapsed spent loading a region
	// group's formula into the incremental instance (0 on a TestFault
	// result, whose one-shot solve loads inside Elapsed).
	LoadElapsed time.Duration
	// SolverStats carries the solver's search counters, summed over every
	// attempt of an escalated fault.
	SolverStats sat.Stats
	// Tier is the escalation attempt that decided the fault, or the last
	// one tried when every attempt aborted: 0 is the solve at
	// RunOptions.PerFaultBudget, and attempt t (at most RetryTiers) ran
	// with RetryBackoff^t times that budget on the same instance.
	Tier int
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

	// testHook, when set by a test, is called with a group member just
	// before each attempt to solve it, and with that attempt's budget
	// (0 = none). It may panic, exercising the per-fault panic barrier
	// without planting bugs in production code, and an attempt it reports
	// true for aborts in place of its solve.
	testHook func(f Fault, budget time.Duration) (abort bool)
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

// newScratch returns a fresh per-worker scratch for circuit c, whose
// region heads are head.
func newScratch(c *logic.Circuit, head []int32) *workerScratch {
	ws := &workerScratch{enc: newFormulaEncoder(c, head)}
	ws.newInstance()
	return ws
}

// newInstance gives the worker a fresh incremental instance, paired with
// its encoder: the instance holds no base, so the next formula carries
// its good copy.
func (ws *workerScratch) newInstance() {
	ws.inc = &sat.Incremental{MaxConflicts: maxConflicts}
	ws.enc.pair()
}

// build encodes the formula of the live members and loads it into the
// worker's instance, setting its good copy as the instance's base
// first unless the instance holds that good set already. It returns the
// loaded part (nil when no member is observable) and the load's time.
func (ws *workerScratch) build(live []Fault) (*cnf.Formula, time.Duration, error) {
	f, err := ws.enc.encode(live)
	if f == nil || err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if ws.enc.base != nil {
		ws.inc.SetBase(ws.enc.base)
	}
	ws.inc.Load(f, ws.enc.priority)
	return f, time.Since(start), nil
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

// load packs one vector into the worker's pack buffer and loads it into
// the worker's fault simulator as a one-pattern word, allocating nothing
// once both are warm.
func (ws *workerScratch) load(c *logic.Circuit, vec []bool) (*faultsim.Simulator, error) {
	var err error
	if ws.pack, err = faultsim.PackPatternsInto(ws.pack, c, [][]bool{vec}); err != nil {
		return nil, err
	}
	return ws.simulator(c, ws.pack, 1)
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// TestFault runs SAT-based test generation for one fault — Figure 1's
// per-instance path, and the engine's reference: it builds the fault's
// ATPG-SAT instance with the reference construction (NewMiter,
// Miter.Encode), solves it one-shot on sat.DPLL and extracts the vector
// with Miter.ExtractTest, sharing no code with the engine's formula
// encoder. A fault with no observable output is Untestable without a
// formula.
func (e *Engine) TestFault(c *logic.Circuit, f Fault) (Result, error) {
	res := Result{Fault: f}
	start := time.Now()
	m, err := NewMiter(c, f)
	var formula *cnf.Formula
	if err == nil {
		formula, err = m.Encode()
	}
	res.BuildElapsed = time.Since(start)
	if errors.Is(err, ErrUnobservable) {
		res.Status = Untestable
		return res, nil
	}
	if err != nil {
		return res, err
	}
	res.Vars, res.Clauses = formula.NumVars, formula.NumClauses()
	start = time.Now()
	sol := (&sat.DPLL{MaxConflicts: maxConflicts}).Solve(formula)
	res.Elapsed = time.Since(start)
	settle(&res, sol, func(model []bool) []bool { return m.ExtractTest(c, model) })
	if res.Status == Detected && !VerifyTest(c, f, res.Vector) {
		return res, fmt.Errorf("atpg: generated vector fails to detect %s (pipeline bug)", f.Name(c))
	}
	return res, nil
}

// settle turns a solver answer into the fault's verdict: a model becomes
// a test vector through extract, UNSAT means untestable, anything else
// aborted. It does not check the vector: TestFault re-simulates its one
// vector with VerifyTest, and a run's commit frontier fault-simulates
// every vector it adopts against its own fault (checkLocked), as a
// cross-check of the whole encode/solve/extract pipeline.
func settle(res *Result, sol sat.Solution, extract func(model []bool) []bool) {
	res.SolverStats = sol.Stats
	switch sol.Status {
	case sat.Sat:
		res.Status = Detected
		res.Vector = extract(sol.Model)
	case sat.Unsat:
		res.Status = Untestable
	default:
		res.Status = Aborted
	}
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
	Phases PhaseTimes
	// SolverTotals merges the per-fault solver statistics of every fault
	// that reached the solver.
	SolverTotals sat.Stats
	// Retries describes budget escalation, one entry per tier some
	// committed result reached (nil when no solve ran out of budget); it
	// is derived from the results' Tier.
	Retries []RetryTier
}

// PhaseTimes is the per-phase work breakdown of a run. The phases
// partition the measured work: each duration is accumulated on a disjoint
// code path (RPT batch simulation, formula encoding, SAT search, the
// commit frontier's per-vector fault simulation), so on a single worker
// their sum is at most WallElapsed; in parallel runs Build and Solve sum
// over workers and can exceed it.
type PhaseTimes struct {
	// RPT is the random-pattern pre-phase wall time (it runs before the
	// worker pool starts, so it never overlaps the other phases).
	RPT time.Duration `json:"rpt_ns"`
	// Build is formula-encoding time (for region groups, encoding plus
	// loading the incremental instance).
	Build time.Duration `json:"build_ns"`
	// Load is the loading part of Build; it is not a phase of its own.
	Load time.Duration `json:"load_ns"`
	// Solve is SAT search time summed over the faults that reached the
	// solver (each Result's Elapsed). Under a parallel run it exceeds wall
	// time; compare Summary.WallElapsed.
	Solve time.Duration `json:"solve_ns"`
	// FaultSim is the commit frontier's fault-simulation time: loading
	// each committed Detected vector once, checking that it detects its
	// own fault and, with DropDetected, simulating it against the
	// uncommitted faults to drop the ones it detects.
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
	// PerFaultBudget, when positive, bounds the SAT time of each attempt
	// to decide a fault. A fault whose solve exhausts it is escalated in
	// place: the worker solves it again at once on the same instance,
	// learned clauses intact, up to RetryTiers times, each with
	// RetryBackoff times the previous budget. A fault is reported Aborted
	// only after the final attempt also fails, instead of stalling the
	// run, and every verdict commits at the fault's own plan position.
	PerFaultBudget time.Duration
	// Telemetry, when non-nil, streams metrics, the run's spans and
	// periodic progress snapshots out of the run. Nil disables metrics and
	// progress; the spans then go only to a private flight recorder.
	Telemetry *Telemetry
	// Journal, when non-nil, receives every final solver verdict as it
	// is decided — the engine side of the crash-recovery checkpoint (see
	// internal/checkpoint). Every verdict the commit frontier adopts is
	// final, escalated ones included, and is journaled once.
	Journal JournalSink
	// Resume replays a previous run's journal: the seeded pre-phase runs
	// again over the full fault list, and each journaled verdict is
	// adopted at its own plan position, where its vector drops faults
	// again — so the vector set is preserved. A Detected verdict's vector
	// is re-simulated first: one that does not detect its fault fails the
	// run. A journaled fault that this run's pre-phase detects (a newer
	// pre-phase than the journal's) counts as RPT-detected; it is not in
	// the sweep plan, so its verdict is never adopted.
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
// pre-phase at DefaultRPTBatches and fault dropping. PerFaultBudget is
// left 0 (no budget, so nothing escalates) and GroupMax 0
// (DefaultGroupMax).
func DefaultRunOptions() RunOptions {
	return RunOptions{
		Collapse:     true,
		Dominance:    true,
		RPTBatches:   DefaultRPTBatches,
		Seed:         1,
		DropDetected: true,
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
// exhaustion. A fault whose net is not a node of c fails the run before
// any work starts.
func (e *Engine) RunFaults(ctx context.Context, c *logic.Circuit, faults []Fault, opt RunOptions) (*Summary, error) {
	start := time.Now()
	for _, f := range faults {
		if f.Net < 0 || f.Net >= len(c.Nodes) {
			return nil, fmt.Errorf("atpg: fault net %d out of range", f.Net)
		}
	}
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
	// the serial call sites (the RPT loop's effort records, the
	// frontier's first and last kicks) borrow worker 0's.
	st.regions = newRegionTable(c)
	scratches := make([]*workerScratch, workers)
	for w := range scratches {
		scratches[w] = newScratch(c, st.regions.head)
	}
	if opt.EffortLog != nil {
		es, err := newEffortState(opt.EffortLog, st.regions, faults, workers)
		if err != nil {
			return nil, err
		}
		st.effort = es
	}
	runSpan := st.trace.Start("run", obs.SpanContext{})
	runSpan.Detail = c.Name
	runSpan.Items = int64(len(faults))
	st.runSpan = runSpan.Context()
	defer runSpan.End()
	rep := obs.StartReporter(telProgressEvery(tel), func() {
		tel.observeProgress(st.progress())
	})
	rptSpan := st.trace.Start("rpt", st.runSpan)
	st.rptSpan = rptSpan.Context()
	err := e.runRPT(runCtx, st, scratches)
	rptSpan.Items = int64(st.rptDetected)
	rptSpan.End()
	if err != nil {
		rep.Stop()
		return nil, err
	}
	// The sweep plan covers every fault the pre-phase left, journaled
	// verdicts included: it is the uninterrupted run's plan. Grouped
	// orders are canonical across group-size caps, so the commit frontier
	// and drop set are too.
	st.order, st.groups = buildGroups(st.regions, faults, st.byRPT, opt.GroupMax)
	tel.observeGroups(st.groups)
	sweepSpan := st.trace.Start("sweep", st.runSpan)
	sweepSpan.Items = int64(len(st.order))
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
			if err := e.runPlan(runCtx, st, w, scratches[w]); err != nil {
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
		sum.Phases.Load += r.LoadElapsed
		sum.Phases.Solve += r.Elapsed
		sum.SolverTotals.Add(r.SolverStats)
		sum.Retries = r.countRetries(sum.Retries, opt.PerFaultBudget)
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
	sum.Phases.RPT = time.Duration(st.rptNS)
	sum.Phases.FaultSim = time.Duration(st.simNS.Load())
	sum.Phases.FrontierStall = time.Duration(st.stallNS.Load())
	sum.WallElapsed = time.Since(start)
	return sum, ctx.Err()
}

// countRetries adds r's budget escalation to the Summary.Retries
// entries so far: r counts as attempted at every tier up to its own, and
// as recovered at its own unless it still aborted.
func (r *Result) countRetries(tiers []RetryTier, budget time.Duration) []RetryTier {
	for t := 1; t <= r.Tier; t++ {
		budget *= RetryBackoff
		if t > len(tiers) {
			tiers = append(tiers, RetryTier{Tier: t, Budget: budget})
		}
		tiers[t-1].Attempted++
	}
	if r.Tier > 0 && r.Status != Aborted {
		tiers[r.Tier-1].Recovered++
	}
	return tiers
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
	c *logic.Circuit
	// regions is c's region table: the plan's cone sizes and the effort
	// features, read serially before the sweep, and the heads every
	// formula encoder shares.
	regions *regionTable
	opt     RunOptions
	start   time.Time
	faults  []Fault

	// order is the sweep's dispatch order over the faults the pre-phase
	// left, and the order the commit frontier walks; groups partition it
	// into the region groups workers claim off cursor (buildGroups).
	order     []int32
	groups    []faultGroup
	cursor    atomic.Int64
	droppedF  bitset                       // officially dropped by a committed vector's flush
	byRPT     []bool                       // detected by the pre-phase: the sweep skips these
	published []atomic.Pointer[specResult] // speculative solves and replayed verdicts, one slot per fault
	resumed   []bool                       // replayed from a journal: never solved or dropped
	// pubHigh is the highest plan position published so far (-1 before
	// the first); the stall clock runs only while it is past the frontier.
	pubHigh atomic.Int64

	// Commit frontier state, all under commitMu.
	commitMu    sync.Mutex
	commitDirty atomic.Bool
	frontier    int       // next position in order to commit
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
	rptDetected int
	rptBatches  int
	rptVectors  [][]bool
	rptNS       int64

	// simNS accumulates the commit frontier's fault-simulation time.
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
// counters, journals it and writes its effort record (phase "retry" when
// an escalated attempt decided it). The commit frontier calls it, under
// commitMu, for every solved result it adopts.
func (st *runState) decide(ws *workerScratch, i int, res *Result, worker int) {
	st.tally(res.Status)
	st.opt.Telemetry.observeVerdict(res)
	if st.opt.Journal != nil {
		st.opt.Journal.RecordFault(i, res.Status.String(), res.Vector, res.Err)
	}
	if st.effort != nil {
		phase := "sweep"
		if res.Tier > 0 {
			phase = "retry"
		}
		st.recordEffort(ws, i, res, phase, worker)
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
// surviving fault list are identical for any worker count, and on a
// resume, whose journaled faults stay live like any other.
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
	live := make([]int, len(st.faults))
	nets := make([]int, len(st.faults))
	sas := make([]bool, len(st.faults))
	for i, f := range st.faults {
		live[i], nets[i], sas[i] = i, f.Net, f.StuckAt
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
		// survivors in place; only the tallies progress snapshots read
		// need mu.
		nw := 0
		for k, m := range masks[:n] {
			if m == 0 {
				live[nw], nets[nw], sas[nw] = live[k], nets[k], sas[k]
				nw++
				continue
			}
			st.byRPT[live[k]] = true
			if st.effort != nil {
				st.recordEffort(scratches[0], live[k], nil, "rpt", -1)
			}
		}
		live, nets, sas = live[:nw], nets[:nw], sas[:nw]
		detected := n - nw
		st.mu.Lock()
		st.rptDetected += detected
		st.rptBatches++
		st.rptVectors = append(st.rptVectors, newVecs...)
		st.mu.Unlock()
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

// publish hands the speculative solve at plan position p to the commit
// frontier — or, when a flush dropped the fault
// while it was in flight, discards it as wasted (the official verdict is
// "dropped") — and then offers to advance the frontier. Exactly one of
// publish and the frontier counts a wasted solve, whoever fills the slot.
func (st *runState) publish(ws *workerScratch, worker, p int, res Result) error {
	i := int(st.order[p])
	if st.droppedF.get(i) || !st.published[i].CompareAndSwap(nil, &specResult{res: res, worker: int32(worker)}) {
		st.countWasted(1)
		if st.effort != nil {
			st.recordEffort(ws, i, &res, "dropped", worker)
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
// slot's published result, in order. A Detected result's vector is loaded
// into the worker's fault simulator once and must detect its own fault
// before anything records the verdict (checkLocked); decide then makes a
// solved result final and observes its solver work, while a verdict
// replayed from a journal is only tallied and recorded; with
// DropDetected the same load is flushed at once — so the order of
// verdicts, journal and effort records, and the entire drop set, is a
// deterministic function of the dispatch order alone. A slot whose solve
// is still in flight blocks the frontier, and so does a vector that fails
// its check: the run fails there. A dropped slot gets its clean-drop
// record and is skipped, discarding any speculative result as wasted.
// Called with commitMu held.
func (st *runState) commitLocked(ws *workerScratch, worker int) error {
	tel := st.opt.Telemetry
	order := st.order
	for st.frontier < len(order) {
		i := int(order[st.frontier])
		if st.droppedF.get(i) {
			if sr := st.published[i].Swap(passedDropped); sr != nil {
				st.countWasted(1)
				if st.effort != nil {
					st.recordEffort(ws, i, &sr.res, "dropped", int(sr.worker))
				}
			}
			// Fault simulation decided the fault: its one non-wasted
			// record carries no solver work.
			if st.effort != nil {
				st.recordEffort(ws, i, nil, "dropped", -1)
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
		res := sr.res
		var sim *faultsim.Simulator
		if res.Status == Detected {
			var err error
			if sim, err = st.checkLocked(ws, i, res.Vector); err != nil {
				return err
			}
		}
		st.frontier++
		st.results[i] = &res
		if st.resumed[i] {
			st.tally(res.Status)
			if st.effort != nil {
				st.recordEffort(ws, i, &res, "resume", -1)
			}
		} else {
			tel.observeSolve(&res)
			st.decide(ws, i, &res, int(sr.worker))
		}
		if sim != nil && st.opt.DropDetected {
			st.flushLocked(sim, worker)
		}
	}
	return nil
}

// checkLocked loads fault i's Detected vector into the worker's fault
// simulator — the one load of that vector, which the flush reuses — and
// fails unless the vector detects fault i itself: a solved vector as a
// cross-check of the whole encode/solve/extract pipeline, a journaled one
// because a journal is external input. Called with commitMu held, before
// the verdict is journaled or recorded; allocation-free once the worker's
// simulator is warm.
func (st *runState) checkLocked(ws *workerScratch, i int, vec []bool) (*faultsim.Simulator, error) {
	start := time.Now()
	f := st.faults[i]
	sim, err := ws.load(st.c, vec)
	if err == nil && sim.DetectsAny(f.Net, f.StuckAt) == 0 {
		err = errors.New("the vector does not detect it")
	}
	if err != nil {
		origin := "solved"
		if st.resumed[i] {
			origin = "resumed"
		}
		return nil, fmt.Errorf("atpg: %s verdict for %s: %v", origin, f.Name(st.c), err)
	}
	st.observeSim(0, time.Since(start))
	return sim, nil
}

// observeSim accounts fault-simulation time and the faults it dropped.
func (st *runState) observeSim(dropped int, d time.Duration) {
	st.droppedN.Add(int64(dropped))
	st.simNS.Add(d.Nanoseconds())
	st.opt.Telemetry.observeFaultSim(dropped, d)
}

// settled reports whether sweep fault i needs no solve: it was dropped,
// or its verdict was replayed from a journal.
func (st *runState) settled(i int) bool {
	return st.resumed[i] || st.droppedF.get(i)
}

// flushLocked fault-simulates the vector just committed, loaded into sim
// by checkLocked, against the uncommitted tail of the dispatch order and
// sets the drop bits of the faults it detects; replayed verdicts are
// final and never dropped. Called with commitMu held. The atomic bitset
// is the only state shared with the claim path, so flushes never make
// claims wait — and the flush allocates nothing.
func (st *runState) flushLocked(sim *faultsim.Simulator, worker int) {
	simStart := time.Now()
	span := st.trace.Start("flush", st.sweepSpan)
	dropped := 0
	order := st.order
	for p := st.frontier; p < len(order); p++ {
		j := int(order[p])
		if st.settled(j) {
			continue
		}
		if sim.DetectsAny(st.faults[j].Net, st.faults[j].StuckAt) != 0 && st.droppedF.set(j) {
			dropped++
		}
	}
	st.observeSim(dropped, time.Since(simStart))
	span.Worker, span.Items = worker, int64(dropped)
	span.End()
}
