package atpg

// This file is the engine side of solving a group: solveGroup, which
// encodes one formula per region group and decides every member on the
// worker's persistent CDCL instance under assumptions. The dispatch loop
// (runPlan) calls it for the groups of every plan — the sweep's and each
// retry tier's re-grouped queue — so a retried fault also benefits from
// clauses learned by its region neighbors in the same tier.

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"time"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/obs"
	"atpgeasy/internal/sat"
)

// solveGroup decides every unsettled member of one group of the plan.
// It encodes the region's gated formula over the members still live,
// loads it into the worker's incremental instance and solves it once
// per member under that member's activation assumptions. Members
// settled before the encode are excluded from it; members dropped after
// it are skipped without a solve — both mirror a claim-time drop check.
// solveGroup is the engine's one per-fault panic barrier: a panic
// anywhere in the group becomes Errored results for the members not yet
// emitted, and the worker's instance is replaced (its sticky shrunk
// learned budget carried over) so the next group starts clean.
//
// The plan's budget, when positive, bounds each member's solve
// separately (a region group shares learned clauses, never a deadline).
// Verdicts and vectors are independent of group size and timing: the
// solver's lex-first branching over the region's input variables makes
// each member's first model project to the lex-least input assignment,
// whatever clauses retention has added — see sat.Incremental's
// determinism contract.
func (e *Engine) solveGroup(ctx context.Context, st *runState, pl *dispatchPlan, g *faultGroup, ws *workerScratch, worker int, shrinkSeen *int64, parent obs.SpanContext, emit emitFunc) (err error) {
	members := pl.order[g.start:g.end]
	next := 0 // members[:next] are emitted or skipped
	// decided hands member k's verdict to emit.
	decided := func(k int, res Result) error {
		if res.Status == Errored {
			st.dumpOnce()
		}
		next = k + 1
		return emit(int(g.start)+k, res)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// The panic may have left the instance mid-solve; replace it,
		// carrying the watchdog's sticky budget so shrink state survives
		// the swap.
		ws.inc = &sat.Incremental{MaxConflicts: maxConflicts, LearnedLimit: ws.inc.LearnedLimit}
		msg := fmt.Sprintf("panic: %v", r)
		stack := string(debug.Stack())
		for k := next; k < len(members); k++ {
			i := int(members[k])
			if st.settled(i) {
				continue
			}
			res := g.result(st.faults[i])
			res.Status, res.Err, res.Stack = Errored, msg, stack
			if eerr := decided(k, res); eerr != nil && err == nil {
				err = eerr
			}
		}
	}()

	gspan := st.trace.Start("group", parent)
	gspan.Worker = worker
	gspan.Detail = "region-" + strconv.Itoa(int(g.region))
	gspan.Items = int64(len(members))
	defer gspan.End()

	// Encode the formula over the members still live. The live set
	// depends on flush timing, but neither verdicts nor vectors do: a
	// member's deactivated clauses are satisfied by its negated
	// selector, and absent inputs extract as false — exactly the value
	// lex-first branching gives them when present.
	buildStart := time.Now()
	live, liveAt := ws.live[:0], ws.liveAt[:0] // liveAt: member k -> index into live, or -1
	for _, idx := range members {
		i := int(idx)
		if st.settled(i) {
			liveAt = append(liveAt, -1)
			continue
		}
		liveAt = append(liveAt, len(live))
		live = append(live, st.faults[i])
	}
	ws.live, ws.liveAt = live, liveAt
	if len(live) == 0 {
		return nil
	}
	formula, err := ws.enc.encode(live, true)
	if err != nil {
		return err
	}
	if formula != nil {
		ws.inc.Load(formula, ws.enc.priority)
	}
	buildElapsed := time.Since(buildStart)

	var assumps []cnf.Lit
	for k, idx := range members {
		i := int(idx)
		mk := liveAt[k]
		if mk < 0 || st.droppedF.get(i) {
			// Dropped before (or since) the encode: skipped without a
			// solve.
			continue
		}
		if ctx.Err() != nil {
			return nil
		}
		// Between members the instance is fully backtracked, so a
		// watchdog-driven shrink can reduce the learned DB here — a
		// 64-member group must not outrun the memory watchdog.
		st.maybeShrink(ws, worker, shrinkSeen)
		abort := e.testHook != nil && e.testHook(st.faults[i], pl.budget)
		res := g.result(st.faults[i])
		if buildElapsed > 0 {
			// The group's encode is attributed to its first emitted
			// member, so summed phase times still account for it exactly
			// once.
			res.BuildElapsed = buildElapsed
			buildElapsed = 0
		}
		if ws.enc.unobservable[mk] {
			res.Status = Untestable
			if err = decided(k, res); err != nil {
				return err
			}
			continue
		}
		lim := sat.Limits{Cancel: ctx.Done()}
		if pl.budget > 0 {
			lim.Deadline = time.Now().Add(pl.budget)
		}
		fspan := st.trace.Start("fault", gspan.Context())
		fspan.Worker = worker
		fspan.Detail = st.faults[i].Name(st.c)
		res.Vars, res.Clauses = formula.NumVars, formula.NumClauses()
		start := time.Now()
		var sol sat.Solution // Unknown: the hook aborted the member
		if !abort {
			assumps = ws.enc.assumptions(mk, assumps)
			sol = ws.inc.SolveAssuming(assumps, lim)
		}
		res.Elapsed = time.Since(start)
		err = settle(st.c, &res, sol, ws.enc)
		fspan.Items = res.SolverStats.SearchEffort()
		fspan.End()
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			// The abort is a draining artifact, not a verdict.
			return nil
		}
		if err = decided(k, res); err != nil {
			return err
		}
	}
	return nil
}
