package atpg

// This file is the engine side of solving a group: solveGroup, which
// encodes one formula per region group and decides every member on the
// worker's persistent CDCL instance under assumptions. The dispatch loop
// (runPlan) calls it for every group of the sweep. A member whose solve
// runs out of budget is escalated in place, on the same instance, so a
// retried fault keeps the clauses learned for it and its region
// neighbors.

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"time"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/sat"
)

// solveGroup decides every unsettled member of one region group of the
// sweep and publishes each verdict to the commit frontier. It encodes the
// region's formula over the members still live, loads it into the
// worker's incremental instance and solves it once per member under
// that member's activation assumptions. Members settled before the
// encode are excluded from it; members dropped after it are skipped
// without a solve — both mirror a claim-time drop check. solveGroup is
// the engine's one per-fault panic barrier: a panic anywhere in the
// group becomes Errored results for the members not yet published, and
// the worker's instance is replaced so the next group starts clean.
//
// PerFaultBudget, when positive, bounds each member's solve separately
// (a region group shares learned clauses, never a deadline). A member
// whose solve returns Unknown under it is solved again at once on the
// same instance, its learned clauses intact, with RetryBackoff times the
// budget, up to RetryTiers times; escalation stops early once the run
// is cancelled or a flush has dropped the member. Verdicts and vectors
// are independent of group size, escalation and timing: the solver's
// lex-first branching over the region's input variables makes each
// member's first model project to the lex-least input assignment,
// whatever clauses retention has added — see sat.Incremental's
// determinism contract.
func (e *Engine) solveGroup(ctx context.Context, st *runState, g *faultGroup, ws *workerScratch, worker int) (err error) {
	members := st.order[g.start:g.end]
	next := 0 // members[:next] are published or skipped
	// decided publishes member k's verdict.
	decided := func(k int, res Result) error {
		if res.Status == Errored {
			st.dumpOnce()
		}
		next = k + 1
		return st.publish(ws, worker, int(g.start)+k, res)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// The panic may have left the instance mid-solve; replace it.
		ws.newInstance()
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

	gspan := st.trace.Start("group", st.sweepSpan)
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
	formula, loadElapsed, err := ws.build(live)
	if err != nil {
		return err
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
		res := g.result(st.faults[i])
		if buildElapsed > 0 {
			// The group's encode and load are attributed to its first
			// published member, so summed phase times still account for
			// them exactly once.
			res.BuildElapsed, res.LoadElapsed = buildElapsed, loadElapsed
			buildElapsed = 0
		}
		if ws.enc.unobservable[mk] {
			res.Status = Untestable
			if err = decided(k, res); err != nil {
				return err
			}
			continue
		}
		// The full formula: the instance's base and the part on top.
		res.Vars, res.Clauses = formula.NumVars, ws.enc.heldClauses+formula.NumClauses()
		assumps = ws.enc.assumptions(mk, assumps)
		var sol sat.Solution
		var stats sat.Stats // every attempt's search
		budget := st.opt.PerFaultBudget
		start := time.Now()
		for {
			sol = sat.Solution{} // Unknown: the hook aborted the attempt
			if e.testHook == nil || !e.testHook(st.faults[i], budget) {
				lim := sat.Limits{Cancel: ctx.Done()}
				if budget > 0 {
					lim.Deadline = time.Now().Add(budget)
				}
				sol = ws.inc.SolveAssuming(assumps, lim)
			}
			stats.Add(sol.Stats)
			if sol.Status != sat.Unknown || budget <= 0 || res.Tier >= RetryTiers ||
				ctx.Err() != nil || st.droppedF.get(i) {
				break
			}
			res.Tier++
			budget *= RetryBackoff
		}
		res.Elapsed = time.Since(start)
		sol.Stats = stats
		settle(&res, sol, ws.enc.extract)
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
