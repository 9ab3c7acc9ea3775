package atpg

// This file is the engine's resilience layer: the checkpoint/resume
// plumbing (the journal itself lives in internal/checkpoint), the
// escalating-budget retry tiers for faults that exhaust PerFaultBudget,
// and the soft-memory watchdog that shrinks the workers' learned-clause
// databases instead of letting the process grow toward an OOM kill. The per-fault panic
// barrier is solveGroup's (incremental.go).

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"atpgeasy/internal/logic"
)

// Retry escalation: by default three tiers, each with RetryBackoff times
// the previous budget, so a fault gets up to 1+4+16+64 = 85x the base
// budget before it is finally reported aborted.
const (
	DefaultRetryTiers = 3
	RetryBackoff      = 4
)

// memWatchdogEvery is the production sampling period of the soft-memory
// watchdog.
const memWatchdogEvery = 250 * time.Millisecond

// JournalSink receives a run's durable progress: the random-pattern
// pre-phase outcome once, then every fault's final verdict as it is
// decided. *checkpoint.Journal implements it; the indirection keeps the
// engine free of a persistence dependency.
type JournalSink interface {
	RecordRPT(detected []int, vectors [][]bool, batches int)
	RecordFault(i int, status string, vector []bool, errMsg string)
}

// ResumeRPT is a journaled random-pattern pre-phase to restore instead
// of re-running: the fault-list indices it detected, the kept vectors in
// batch-then-pattern order, and the batch count.
type ResumeRPT struct {
	Detected []int
	Vectors  [][]bool
	Batches  int
}

// ResumeState is a previous run's journaled progress, replayed into a
// new run via RunOptions.Resume. Fault indices refer to the current
// fault list — callers must verify the list matches the journaled run
// (CheckpointFingerprint) before resuming.
type ResumeState struct {
	RPT *ResumeRPT
	// Faults maps fault-list index to its final verdict; only Status,
	// Vector and Err are meaningful on the Results.
	Faults map[int]Result
}

// RetryTier summarizes one escalation tier of the retry phase.
type RetryTier struct {
	Tier      int           `json:"tier"`
	Budget    time.Duration `json:"budget_ns"`
	Attempted int           `json:"attempted"`
	Recovered int           `json:"recovered"`
}

// CheckpointFingerprint hashes everything that determines a run's
// verdict/vector identity — circuit, exact fault list, seed and the
// deterministic run options — so a journal from a different run is
// rejected instead of silently mis-applied. The pre-phase's idle stop is
// hashed too: it was once a run option, and journals written at its
// default, DefaultRPTIdleStop, still resume. With DropDetected the drop
// rule is hashed too, so journals written under batched drops are
// refused. Worker count and budgets are deliberately excluded: verdicts
// are worker-independent, and budgets only move faults between decided
// and aborted.
func CheckpointFingerprint(c *logic.Circuit, faults []Fault, opt RunOptions) uint64 {
	h := fnv.New64a()
	// The "inc|" segment is a fixed marker: it once told region-grouped
	// journals from those of a since-removed fresh-DPLL path, and stays
	// so journals written before that path was removed still resume.
	// GroupMax is excluded: vectors and verdicts are identical for every
	// group-size cap.
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%t|inc|", c.Name, len(c.Inputs),
		opt.Seed, opt.RPTBatches, DefaultRPTIdleStop, opt.DropDetected)
	if opt.DropDetected {
		fmt.Fprint(h, "exact-drop|")
	}
	for _, f := range faults {
		fmt.Fprintf(h, "%d:%t;", f.Net, f.StuckAt)
	}
	return h.Sum64()
}

// applyResume pre-fills the run state with a previous run's journaled
// progress: a completed pre-phase is restored so it is not re-run, and
// each journaled verdict is published into its fault's slot, for the
// commit frontier to adopt.
func (st *runState) applyResume(rs *ResumeState) {
	if rs == nil {
		return
	}
	if rs.RPT != nil {
		for _, i := range rs.RPT.Detected {
			if i >= 0 && i < len(st.byRPT) {
				st.byRPT[i] = true
			}
		}
		st.rptDetectedIdx = append([]int(nil), rs.RPT.Detected...)
		st.rptDetected = len(rs.RPT.Detected)
		st.rptBatches = rs.RPT.Batches
		st.rptVectors = rs.RPT.Vectors
		st.rptRestored = true
	}
	for i, r := range rs.Faults {
		if i < 0 || i >= len(st.results) {
			continue
		}
		st.published[i].Store(&specResult{res: r, worker: -1})
		st.resumed[i] = true
	}
}

// maybeShrink halves the worker's learned-clause budget when the
// watchdog generation advanced since the worker last looked. Runs
// between faults on the worker's own goroutine, so the instance is
// fully backtracked.
func (st *runState) maybeShrink(ws *workerScratch, worker int, seen *int64) {
	gen := st.shrinkGen.Load()
	if gen == *seen {
		return
	}
	*seen = gen
	span := st.trace.Start("shrink", st.runSpan)
	span.Worker = worker
	span.Items = ws.inc.ShrinkLearned()
	span.End()
	st.opt.Telemetry.observeShrink()
}

// startMemWatchdog arms the soft-memory watchdog when the run has a
// MemSoftLimit: a sampler reads the Go heap size on a period and, while
// it exceeds the limit, bumps the shrink generation — at most one
// learned-budget halving per worker per sample. The returned stop function blocks until
// the sampler exits.
func (e *Engine) startMemWatchdog(ctx context.Context, st *runState) func() {
	if st.opt.MemSoftLimit <= 0 {
		return func() {}
	}
	every := e.memCheckEvery
	if every <= 0 {
		every = memWatchdogEvery
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if int64(ms.HeapAlloc) > st.opt.MemSoftLimit {
				st.shrinkGen.Add(1)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// runRetryTiers is the escalation phase: after the main sweep, faults
// that hit PerFaultBudget are re-run on the worker pool for up to
// RetryTiers rounds with geometrically increasing budgets, reusing the
// per-worker scratch arenas. A fault leaves the queue as soon as a tier
// decides it; survivors of the final tier stay Aborted, and only then is
// that verdict final. Returns one summary entry per tier that ran.
func (e *Engine) runRetryTiers(ctx context.Context, st *runState, scratches []*workerScratch) []RetryTier {
	opt := st.opt
	if opt.RetryTiers <= 0 || opt.PerFaultBudget <= 0 {
		return nil
	}
	// The main sweep's pool has exited and its frontier is drained, so the
	// results array is quiescent here.
	var queue []int
	for i, r := range st.results {
		if r != nil && r.Status == Aborted && !st.resumed[i] {
			queue = append(queue, i)
		}
	}
	st.mu.Lock()
	failed := st.err != nil
	st.mu.Unlock()
	if failed {
		return nil
	}

	tel := opt.Telemetry
	budget := opt.PerFaultBudget
	var tiers []RetryTier
	for tier := 1; tier <= opt.RetryTiers && len(queue) > 0 && ctx.Err() == nil; tier++ {
		budget *= RetryBackoff
		entry := RetryTier{Tier: tier, Budget: budget, Attempted: len(queue)}
		tierSpan := st.trace.Start("retry-tier", st.runSpan)
		tierSpan.Detail = fmt.Sprintf("tier-%d", tier)
		tierSpan.Items = int64(len(queue))
		tierCtx := tierSpan.Context()
		// Each fault's slot is written by the one worker that claimed it
		// (or its group), so the writes are disjoint.
		decidedF := make([]bool, len(st.results))
		// adopt is the tier's emit: the result replaces the fault's
		// aborted one directly (there is no speculation to commit), and
		// a verdict that is not Aborted is final.
		adopt := func(ws *workerScratch, w, i int, res Result) {
			st.results[i] = &res
			tel.observeAttempt(w, tier, &res)
			if res.Status != Aborted {
				decidedF[i] = true
				st.decide(ws, i, &res, "retry", tier, w)
			}
		}
		// The tier is a plan over its queue, laid out like the sweep's:
		// the queue is re-grouped by fanout region, so a retried fault
		// resumes on a shared region instance and reuses clauses learned
		// by its neighbors in the same tier.
		skip := make([]bool, len(st.faults))
		for i := range skip {
			skip[i] = true
		}
		for _, i := range queue {
			skip[i] = false
		}
		pl := planDispatch(st.c, st.faults, skip, opt.GroupMax, budget)
		var wg sync.WaitGroup
		for w, ws := range scratches {
			w, ws := w, ws
			wg.Add(1)
			go func() {
				defer wg.Done()
				emit := func(p int, res Result) error {
					adopt(ws, w, int(pl.order[p]), res)
					return nil
				}
				if err := e.runPlan(ctx, st, pl, w, ws, tierCtx, emit); err != nil {
					st.setErr(err)
				}
			}()
		}
		wg.Wait()
		tierSpan.End()
		var still []int
		for _, i := range queue {
			if !decidedF[i] {
				still = append(still, i)
			}
		}
		entry.Recovered = entry.Attempted - len(still)
		tiers = append(tiers, entry)
		queue = still
		st.mu.Lock()
		failed = st.err != nil
		st.mu.Unlock()
		if failed {
			return tiers
		}
	}
	// Whatever is still queued is finally Aborted, carrying the last
	// tier's result — unless the run is draining (a later resume should
	// get another shot).
	if ctx.Err() == nil {
		for _, i := range queue {
			st.decide(scratches[0], i, st.results[i], "retry", len(tiers), -1)
		}
	}
	return tiers
}
