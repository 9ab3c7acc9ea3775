// Package sat implements the Boolean-satisfiability solvers used in the
// reproduction of "Why is ATPG Easy?":
//
//   - Simple: simple backtracking with a fixed static variable ordering —
//     the base algorithm of Section 4.1 without the cache.
//   - Caching: the paper's Algorithm 1, caching-based backtracking, which
//     caches unsatisfiable sub-formulas (as clause sets) and prunes any
//     branch whose residual sub-formula has been seen before. Its node
//     count realizes the distinct-consistent-sub-formula (DCSF) bound of
//     Theorem 4.1.
//   - Incremental: the one conflict-driven (CDCL) core — watched
//     literals, 1-UIP learning, activity-based decisions, restarts —
//     playing the role of TEGUS's SAT solver. One instance is Loaded once
//     and solved many times under assumptions, keeping its learned
//     clauses between calls.
//   - DPLL: the core's one-shot configuration, a fresh Incremental per
//     Solve with no assumptions and no priority order.
//
// All solvers consume cnf.Formula and return a Solution with a model on
// SAT and search statistics. Simple, Caching and DPLL implement Solver.
//
// # Determinism contract
//
// Every solver in this package is a pure function of (formula, limits):
// re-solving the same formula yields the same verdict, the same model,
// and the same statistics, with no dependence on scheduling or timing.
// Incremental, when Loaded with a priority variable list, strengthens
// this to a lex-least guarantee: each decision assigns the first
// unassigned priority variable to false before any activity-ordered
// decision is considered, so the first model found projects onto the
// priority variables as the lexicographically least assignment among
// all models consistent with the assumptions — whatever
// learned clauses happen to be in the database, and whatever was solved
// on the instance before. Callers lean on this contract wherever results
// must not depend on execution order: the ATPG engine's region-grouped
// incremental solving extracts the same test vector a fresh solve would
// (see Incremental), whatever the region group's size or history.
package sat

import (
	"fmt"
	"time"

	"atpgeasy/internal/cnf"
)

// Status is the outcome of a solve call.
type Status int8

// Solver outcomes. Unknown is returned when a resource limit was hit
// before the search completed.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String returns "SAT", "UNSAT" or "UNKNOWN".
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Stats counts search work. Not every field is meaningful for every
// solver: the Cache* fields apply to Caching; Conflicts, Learned and the
// learned-clause counters to the CDCL core (DPLL and Incremental).
// The JSON tags fix the schema of -json summaries.
type Stats struct {
	Nodes     int64 `json:"nodes"` // backtracking nodes visited (Simple/Caching)
	Decisions int64 `json:"decisions"`
	// Propagations counts literals propagated by the search. The core's
	// level-0 pass over the problem's unit clauses runs in Load, before
	// any call, and is not counted.
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	// Learned counts the clauses conflict analysis learned, unit clauses
	// included.
	Learned      int64 `json:"learned"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int64 `json:"cache_entries"` // live entries at the end of the solve
	// CacheEvictions counts entries displaced by the bounded table
	// (second-chance within the probe window plus byte-budget reclaims).
	CacheEvictions int64 `json:"cache_evictions"`
	// CacheCollisions counts digest matches rejected by exact-key
	// comparison; only Caching.VerifyKeys mode can observe them.
	CacheCollisions int64 `json:"cache_collisions"`
	// CacheBytes is the cache's memory footprint (slot slab + stored keys)
	// at the end of the solve. It is a gauge, not a flow: Add takes the
	// maximum, the largest table any one solve held.
	CacheBytes int64 `json:"cache_bytes"`
	MaxDepth   int   `json:"max_depth"`
	// Learned-clause database counters of the CDCL core. LearnedKept
	// counts learned clauses alive at call start that were born in
	// earlier SolveAssuming calls; LearnedReused counts how many
	// learned-clause uses in this call's conflict analyses came from
	// clauses born in earlier calls — the direct measure of cross-fault
	// knowledge reuse. Both are zero on a one-shot DPLL solve.
	// ClauseDBBytes is the learned database footprint at call end, set
	// on DPLL results too: a gauge, so Add takes the maximum like
	// CacheBytes.
	LearnedKept   int64 `json:"learned_kept,omitempty"`
	LearnedReused int64 `json:"learned_reused,omitempty"`
	ClauseDBBytes int64 `json:"clause_db_bytes,omitempty"`
}

// Add accumulates o into s field-wise; MaxDepth and CacheBytes take the
// maximum. It is the snapshot-merge used to aggregate per-fault solver
// work into run-level totals (Summary.SolverTotals, the /metrics
// counters).
func (s *Stats) Add(o Stats) {
	s.Nodes += o.Nodes
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Conflicts += o.Conflicts
	s.Learned += o.Learned
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEntries += o.CacheEntries
	s.CacheEvictions += o.CacheEvictions
	s.CacheCollisions += o.CacheCollisions
	s.LearnedKept += o.LearnedKept
	s.LearnedReused += o.LearnedReused
	if o.CacheBytes > s.CacheBytes {
		s.CacheBytes = o.CacheBytes
	}
	if o.ClauseDBBytes > s.ClauseDBBytes {
		s.ClauseDBBytes = o.ClauseDBBytes
	}
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
}

// SearchEffort collapses the search counters into one solver-agnostic
// work scalar: the CDCL core fills decisions/propagations/conflicts,
// the backtrackers fill nodes, and summing all four orders faults by
// search work regardless of which solver decided them. This is the
// effort axis of the per-fault effort log (the y of the source paper's
// Figure 1, in search steps instead of seconds — unlike wall time it is
// deterministic and machine-independent).
func (s Stats) SearchEffort() int64 {
	return s.Nodes + s.Decisions + s.Propagations + s.Conflicts
}

// Solution is the result of a solve call. Model is valid only when Status
// is Sat and then has one value per variable.
type Solution struct {
	Status Status
	Model  []bool
	Stats  Stats
}

// Solver is the common one-shot interface of Simple, Caching and DPLL.
type Solver interface {
	// Solve decides satisfiability of f. Implementations must not retain f.
	Solve(f *cnf.Formula) Solution
}

// Limits carries the per-call abort controls of Incremental.SolveAssuming.
// The zero value imposes none. The search observes both mechanisms at a
// coarse cadence (every limitCheck steps), so aborts cost no measurable
// overhead on easy instances.
type Limits struct {
	// Deadline, when non-zero, aborts the search with Unknown once passed.
	Deadline time.Time
	// Cancel, when non-nil, aborts the search with Unknown once closed.
	// Typically a context's Done channel.
	Cancel <-chan struct{}
}

// expired reports whether the search must stop now.
func (l Limits) expired() bool {
	if l.Cancel != nil {
		select {
		case <-l.Cancel:
			return true
		default:
		}
	}
	return !l.Deadline.IsZero() && !time.Now().Before(l.Deadline)
}

// limitCheck is the step cadence at which SolveAssuming consults Limits.
// Coarse enough that time.Now stays off the hot path, fine enough that a
// per-fault budget is honored within microseconds.
const limitCheck = 1024

// Verify checks that a claimed model satisfies the formula; it returns an
// error naming the first violated clause. The tests use it to check every
// solver's models.
func Verify(f *cnf.Formula, model []bool) error {
	if len(model) < f.NumVars {
		return fmt.Errorf("sat: model has %d values for %d variables", len(model), f.NumVars)
	}
	for i, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if l.Sat(model[l.Var()]) {
				sat = true
				break
			}
		}
		if !sat {
			return fmt.Errorf("sat: clause %d %s violated", i, f.PrettyClause(c))
		}
	}
	return nil
}

// checkOrder validates that order is a permutation covering all n
// variables; a nil order means the identity.
func checkOrder(order []int, n int) ([]int, bool) {
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order, true
	}
	if len(order) != n {
		return nil, false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return nil, false
		}
		seen[v] = true
	}
	return order, true
}
