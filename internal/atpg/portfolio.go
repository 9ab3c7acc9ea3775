package atpg

// The routed backends: the execution side of the cut-width-guided
// router (router.go). A routed plan's dispatch order is hard-class
// region groups first, then the single-fault tail (structural →
// low-width → trivial); the dispatch loop (runPlan) aims each single
// fault at its class backend — the PODEM structural engine, the
// Algorithm-1 caching backtracker, or a CDCL solve — behind the same
// per-fault panic barrier, speculative publish and deterministic commit
// frontier as every other plan. Backends differ only in how a verdict is
// found, never in what it means: every path yields the same Detected /
// Untestable / Aborted statuses and a verified vector, so routed runs
// stay byte-identical at any worker count.

import (
	"fmt"
	"time"

	"atpgeasy/internal/podem"
	"atpgeasy/internal/sat"
)

// Backend names as they appear in Result.Backend, effort records, the
// routed summary and the atpg_routed_total metric; backendFaultSim
// (telemetry.go) completes the set.
const (
	backendPodem   = "podem"
	backendCaching = "caching"
	backendCDCL    = "cdcl"
)

// routedHardBudget is PerFaultBudget scaled by RouteHardScale for the
// hard class (0 stays 0: no budget means no deadline on any backend).
func (st *runState) routedHardBudget() time.Duration {
	b := st.opt.PerFaultBudget
	if b <= 0 {
		return 0
	}
	scale := st.opt.RouteHardScale
	if scale == 0 {
		scale = DefaultRouteHardScale
	}
	if scale < 1 {
		scale = 1
	}
	return time.Duration(float64(b) * scale)
}

// solveCachingBackend is the low-width class's backend: the Algorithm-1
// caching backtracker, polynomial on the bounded-cut-width sub-circuits
// the router sends it (the paper's own solver).
func (e *Engine) solveCachingBackend(st *runState, f Fault, ws *workerScratch, lim sat.Limits) (Result, error) {
	cs := &sat.Caching{CacheLimit: st.opt.CacheLimit}
	var solver sat.Solver = cs
	if !lim.IsZero() {
		solver = cs.WithLimits(lim)
	}
	res, err := e.testFaultOn(st.c, f, ws, solver)
	res.Backend = backendCaching
	return res, err
}

// solvePodemBackend is the structural (and trivial-survivor) backend:
// a PODEM search over the fault cone, SCOAP-guided, with a deterministic
// backtrack cap. A cap abort is a pure function of the circuit and the
// cap, so the CDCL fallback it triggers fires identically at any worker
// count; a deadline or cancellation abort is a budget artifact and stays
// Aborted like every other backend's.
func (e *Engine) solvePodemBackend(st *runState, f Fault, ws *workerScratch, lim sat.Limits) (Result, error) {
	maxBT := st.opt.PodemMaxBacktracks
	if maxBT == 0 {
		maxBT = DefaultPodemMaxBacktracks
	} else if maxBT < 0 {
		maxBT = 0 // explicit "unbounded" (no CDCL fallback either)
	}
	popt := podem.Options{
		MaxBacktracks: maxBT,
		Deadline:      lim.Deadline,
		Cancel:        lim.Cancel,
	}
	if sc := st.scoap; sc != nil {
		popt.CC0, popt.CC1 = sc.CC0, sc.CC1
	}
	start := time.Now()
	pr := podem.Run(st.c, f.Net, f.StuckAt, popt)
	res := Result{
		Fault:   f,
		Elapsed: time.Since(start),
		Backend: backendPodem,
		// PODEM's counters map onto the solver-stats vocabulary the effort
		// log and summary totals already speak: backtracks are search
		// nodes, implications are propagations. Conflicts stay 0 — routed
		// conflict totals measure CDCL work alone.
		SolverStats: sat.Stats{
			Nodes:        pr.Backtracks,
			Decisions:    pr.Decisions,
			Propagations: pr.Implications,
		},
	}
	switch pr.Status {
	case podem.Detected:
		res.Status = Detected
		res.Vector = pr.Vector(false)
		if e.VerifyTests && !VerifyTest(st.c, f, res.Vector) {
			return res, fmt.Errorf("atpg: generated vector fails to detect %s (pipeline bug)", f.Name(st.c))
		}
		return res, nil
	case podem.Untestable:
		res.Status = Untestable
		return res, nil
	}
	if maxBT > 0 && pr.Backtracks >= maxBT {
		// Deterministic cap abort → CDCL fallback on the remaining budget.
		// The failed structural attempt is real work, so its wall time and
		// counters stay on the fault's record.
		fb, err := e.testFault(st.c, f, lim, ws, st.opt.CacheLimit)
		fb.Backend = backendCDCL
		fb.Elapsed += res.Elapsed
		fb.SolverStats.Nodes += pr.Backtracks
		fb.SolverStats.Decisions += pr.Decisions
		fb.SolverStats.Propagations += pr.Implications
		return fb, err
	}
	res.Status = Aborted
	return res, nil
}
