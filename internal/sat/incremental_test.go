package sat

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"atpgeasy/internal/cnf"
)

// TestLoadMatchesNormalize checks Load's in-slab normalization against
// cnf.Clause.Normalize on a copy of each clause. On random clause lists
// with duplicate literals, tautologies, unit clauses and, in some lists,
// an empty clause, Load must keep exactly the normalized clauses of two
// or more literals as problem clauses, in order; report Failed() exactly
// when unit propagation over the normalized list reaches a conflict; and
// leave f byte-identical. All lists are loaded on one reused instance.
func TestLoadMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := NewIncremental()
	var failedLists int
	const lists = 600
	for i := 0; i < lists; i++ {
		nv := 2 + rng.Intn(10)
		f := cnf.NewFormula(nv)
		for k := 1 + rng.Intn(30); k > 0; k-- {
			c := make(cnf.Clause, 1+rng.Intn(5))
			for j := range c {
				c[j] = cnf.NewLit(rng.Intn(nv), rng.Intn(2) == 1)
			}
			f.Clauses = append(f.Clauses, c)
		}
		if rng.Intn(10) == 0 {
			at := rng.Intn(len(f.Clauses) + 1)
			f.Clauses = slices.Insert(f.Clauses, at, cnf.Clause{})
		}
		before := &cnf.Formula{NumVars: f.NumVars}
		for _, c := range f.Clauses {
			before.Clauses = append(before.Clauses, slices.Clone(c))
		}

		// The reference: normalize a copy of each clause.
		var kept, all []cnf.Clause
		empty := false
		for _, c := range f.Clauses {
			norm, taut := append(cnf.Clause(nil), c...).Normalize()
			if taut {
				continue
			}
			empty = empty || len(norm) == 0
			all = append(all, norm)
			if len(norm) >= 2 {
				kept = append(kept, norm)
			}
		}
		wantFailed := empty || unitPropagationConflict(nv, all)

		s.Load(f, nil)
		if !reflect.DeepEqual(f, before) {
			t.Fatalf("list %d: Load changed its formula", i)
		}
		got := s.st.clauses[:s.st.nProblem]
		if len(got) != len(kept) {
			t.Fatalf("list %d: %d problem clauses, want %d", i, len(got), len(kept))
		}
		for k := range kept {
			// Load's own propagation may swap watched literals; compare
			// the clauses as literal sets.
			g := slices.Clone(got[k])
			slices.Sort(g)
			if !slices.Equal(g, kept[k]) {
				t.Fatalf("list %d: problem clause %d is %v, want %v", i, k, g, kept[k])
			}
		}
		if s.Failed() != wantFailed {
			t.Fatalf("list %d: Failed() = %v, want %v", i, s.Failed(), wantFailed)
		}
		if wantFailed {
			failedLists++
		}
	}
	if failedLists == 0 || failedLists == lists {
		t.Fatalf("%d of %d lists failed: the generator misses a case", failedLists, lists)
	}
}

// TestSetBaseMatchesConcatenation checks Load on top of a base against a
// plain Load of the concatenation. Bases and parts are random clause
// lists with units, duplicate literals and tautologies, and some bases
// hold an empty clause. One instance keeps each base across several
// rounds of Load and SolveAssuming, which reorder the base's literals in
// place; after every Load its state must equal a fresh instance's after
// Load(base ++ part): the same clause literal order, watch lists,
// activities, heap, level-0 trail and Failed. Both then answer the same
// assumptions with equal Solutions, Stats included.
func TestSetBaseMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	messy := func(nv, n int) []cnf.Clause {
		var cs []cnf.Clause
		for ; n > 0; n-- {
			c := make(cnf.Clause, 1+rng.Intn(4))
			for j := range c {
				c[j] = cnf.NewLit(rng.Intn(nv), rng.Intn(2) == 1)
			}
			switch rng.Intn(8) {
			case 0:
				c = append(c, c[0]) // a duplicate literal
			case 1:
				c = append(c, c[0].Not()) // a tautology
			}
			cs = append(cs, c)
		}
		return cs
	}
	outcomes := map[Status]int{}
	for trial := 0; trial < 40; trial++ {
		nb := 8 + rng.Intn(12)
		base := &cnf.Formula{NumVars: nb, Clauses: messy(nb, 2*nb)}
		if trial%8 == 7 {
			at := rng.Intn(len(base.Clauses) + 1)
			base.Clauses = slices.Insert(base.Clauses, at, cnf.Clause{})
		}
		s := NewIncremental()
		s.SetBase(base)
		for round := 0; round < 5; round++ {
			nv := nb - 2 + rng.Intn(12) // sometimes fewer variables than the base
			part := &cnf.Formula{NumVars: nv, Clauses: messy(max(nv, nb), nv)}
			prio := rng.Perm(max(nv, nb))[:rng.Intn(6)]
			whole := &cnf.Formula{NumVars: max(nv, nb), Clauses: slices.Concat(base.Clauses, part.Clauses)}
			s.Load(part, prio)
			fresh := NewIncremental()
			fresh.Load(whole, prio)
			if d := diffLoaded(&s.st, &fresh.st); d != "" {
				t.Fatalf("trial %d round %d: after Load on the base, %s", trial, round, d)
			}
			for q := 0; q < 3; q++ {
				var assumps []cnf.Lit
				for _, v := range rng.Perm(max(nv, nb))[:rng.Intn(4)] {
					assumps = append(assumps, cnf.NewLit(v, rng.Intn(2) == 1))
				}
				got, want := s.SolveAssuming(assumps, Limits{}), fresh.SolveAssuming(assumps, Limits{})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d round %d query %d: %+v on the base, %+v on the concatenation", trial, round, q, got, want)
				}
				outcomes[got.Status]++
			}
		}
	}
	if outcomes[Sat] == 0 || outcomes[Unsat] == 0 {
		t.Fatalf("outcomes %v: the generator misses a case", outcomes)
	}
}

// diffLoaded names the first field in which two freshly loaded states
// differ, or returns "".
func diffLoaded(a, b *incState) string {
	switch {
	case a.numVars != b.numVars || a.nProblem != b.nProblem || a.failed != b.failed:
		return "the sizes or Failed differ"
	case !slices.EqualFunc(a.clauses, b.clauses, slices.Equal):
		return "the clause literal order differs"
	case !slices.EqualFunc(a.watches, b.watches, slices.Equal):
		return "the watch lists differ"
	case !slices.Equal(a.activity, b.activity):
		return "the activities differ"
	case !slices.Equal(a.heap.heap, b.heap.heap) || !slices.Equal(a.heap.pos, b.heap.pos):
		return "the heaps differ"
	case !slices.Equal(a.trail, b.trail) || a.qhead != b.qhead || !slices.Equal(a.vals, b.vals) ||
		!slices.Equal(a.level, b.level) || !slices.Equal(a.reason, b.reason):
		return "the level-0 trails differ"
	case !slices.Equal(a.priority, b.priority) || !slices.Equal(a.phase, b.phase):
		return "the branching orders differ"
	}
	return ""
}

// unitPropagationConflict runs unit propagation to a fixpoint over the
// clauses and reports whether it reaches a conflict.
func unitPropagationConflict(nv int, clauses []cnf.Clause) bool {
	assign := make([]cnf.Value, nv)
	for changed := true; changed; {
		changed = false
		for _, c := range clauses {
			free, open := cnf.Lit(-1), 0
			sat := false
			for _, l := range c {
				switch v := assign[l.Var()]; {
				case v == cnf.Unassigned:
					free, open = l, open+1
				case (v == cnf.True) != l.IsNeg():
					sat = true
				}
			}
			switch {
			case sat:
			case open == 0:
				return true
			case open == 1:
				assign[free.Var()] = cnf.ValueOf(!free.IsNeg())
				changed = true
			}
		}
	}
	return false
}

// TestIncrementalAgreesWithBruteForce Loads every formula on one reused
// instance and checks the verdict against brute force, then re-solves
// it on the same loaded instance under empty assumptions to check
// call-to-call independence of the verdict.
func TestIncrementalAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewIncremental()
	for i := 0; i < 300; i++ {
		f := randomFormula(rng, 2+rng.Intn(8), 1+rng.Intn(20))
		want := bruteForce(f)
		s.Load(f, nil)
		sol := s.SolveAssuming(nil, Limits{})
		if sol.Status != want {
			t.Fatalf("formula %d: incremental says %v, brute force %v\n%s", i, sol.Status, want, f)
		}
		if sol.Status == Sat {
			if err := Verify(f, sol.Model); err != nil {
				t.Fatalf("formula %d: %v", i, err)
			}
		}
		// A second call on the same loaded instance must agree.
		again := s.SolveAssuming(nil, Limits{})
		if again.Status != want {
			t.Fatalf("formula %d: repeat call says %v, want %v", i, again.Status, want)
		}
	}
}

// selectorFormula builds a formula with two "activation" selector
// variables 0 and 1: selector 0 forces x2, selector 1 forces ¬x2, and
// x3 must equal x2. Assuming both selectors is unsatisfiable; assuming
// either alone is satisfiable. This is the shape of the region-grouped
// ATPG encoding (per-fault activation literals on a shared formula).
func selectorFormula() *cnf.Formula {
	f := cnf.NewFormula(4)
	s0 := cnf.NewLit(0, false)
	s1 := cnf.NewLit(1, false)
	x2 := cnf.NewLit(2, false)
	x3 := cnf.NewLit(3, false)
	f.AddClause(s0.Not(), x2)       // s0 -> x2
	f.AddClause(s1.Not(), x2.Not()) // s1 -> ¬x2
	f.AddClause(x2.Not(), x3)       // x2 -> x3
	f.AddClause(x3.Not(), x2)       // x3 -> x2
	return f
}

// TestSolveAssumingNotGlobal is the assumption-core soundness property:
// UNSAT under one assumption set must not poison the instance — a later
// call with compatible assumptions must still find a model, and
// Failed() must stay false throughout. Only a genuine level-0 conflict
// may latch Failed.
func TestSolveAssumingNotGlobal(t *testing.T) {
	s := NewIncremental()
	s.Load(selectorFormula(), nil)

	both := []cnf.Lit{cnf.NewLit(0, false), cnf.NewLit(1, false)}
	if got := s.SolveAssuming(both, Limits{}); got.Status != Unsat {
		t.Fatalf("both selectors: got %v, want UNSAT", got.Status)
	}
	if s.Failed() {
		t.Fatal("UNSAT under assumptions latched Failed(); it must stay per-call")
	}
	only0 := []cnf.Lit{cnf.NewLit(0, false), cnf.NewLit(1, true)}
	sol := s.SolveAssuming(only0, Limits{})
	if sol.Status != Sat {
		t.Fatalf("selector 0 alone: got %v, want SAT", sol.Status)
	}
	if !sol.Model[2] || !sol.Model[3] {
		t.Fatalf("selector 0 alone: model %v, want x2 and x3 true", sol.Model)
	}
	if s.Failed() {
		t.Fatal("SAT call latched Failed()")
	}

	// Genuine global UNSAT does latch: x ∧ ¬x.
	g := cnf.NewFormula(1)
	g.AddClause(cnf.NewLit(0, false))
	g.AddClause(cnf.NewLit(0, true))
	s.Load(g, nil)
	if got := s.SolveAssuming(nil, Limits{}); got.Status != Unsat {
		t.Fatalf("contradiction: got %v, want UNSAT", got.Status)
	}
	if !s.Failed() {
		t.Fatal("level-0 conflict did not latch Failed()")
	}
}

// TestSolveAssumingMatchesBruteForce cross-checks assumption solving
// against brute force with the assumptions added as unit clauses, on a
// persistent instance across many random assumption sets — learned
// clauses from earlier calls must never change a verdict.
func TestSolveAssumingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewIncremental()
	for trial := 0; trial < 60; trial++ {
		nVars := 4 + rng.Intn(6)
		f := randomFormula(rng, nVars, 3+rng.Intn(25))
		s.Load(f, nil)
		if s.Failed() {
			continue
		}
		for call := 0; call < 10; call++ {
			var assumps []cnf.Lit
			used := map[int]bool{}
			for len(assumps) < 1+rng.Intn(3) {
				v := rng.Intn(nVars)
				if used[v] {
					continue
				}
				used[v] = true
				assumps = append(assumps, cnf.NewLit(v, rng.Intn(2) == 1))
			}
			withUnits := f.Clone()
			for _, a := range assumps {
				withUnits.AddClause(a)
			}
			want := bruteForce(withUnits)
			sol := s.SolveAssuming(assumps, Limits{})
			if sol.Status != want {
				t.Fatalf("trial %d call %d: got %v, want %v (assumps %v)\n%s",
					trial, call, sol.Status, want, assumps, f)
			}
			if sol.Status == Sat {
				if err := Verify(withUnits, sol.Model); err != nil {
					t.Fatalf("trial %d call %d: %v", trial, call, err)
				}
			}
		}
	}
}

// TestLexLeastModelInvariant is the determinism contract behind the
// engine's byte-identical-vectors guarantee: with a priority branching
// order, the model's projection onto the priority variables must be the
// lex-least one consistent with the assumptions — and therefore
// identical whether the instance is fresh or carries learned clauses
// from earlier calls.
func TestLexLeastModelInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		nVars := 5 + rng.Intn(6)
		f := randomFormula(rng, nVars, 3+rng.Intn(20))
		checkWarmLexLeast(t, rng, trial, f, 0)
	}
}

// TestLearnedReductionKeepsLexLeastModel holds learned-clause reduction
// to the same contract. The 3-CNF formulas sit near the satisfiability
// threshold, so the warm calls learn, and a 1-byte learned budget makes
// reduceDB empty the learned tail at every call boundary: reduction
// must change no verdict and no priority projection.
func TestLearnedReductionKeepsLexLeastModel(t *testing.T) {
	const trials = 60
	rng := rand.New(rand.NewSource(29))
	learned := 0 // trials whose warm calls learned a clause
	for trial := 0; trial < trials; trial++ {
		nVars := 12 + rng.Intn(3)
		f := random3CNF(rng, nVars, 4*nVars)
		if checkWarmLexLeast(t, rng, trial, f, 1) {
			learned++
		}
	}
	if learned < trials/2 {
		t.Fatalf("warm calls learned in only %d of %d trials; the test exercises no reduction", learned, trials)
	}
}

// TestFullTrailSkipsHeap: once the priority list is exhausted and every
// variable is assigned, pickBranch reports the model without popping a
// single variable off the activity heap. The formula is an AND and an OR
// gate over two priority inputs (g = a∧b, h = a∨b), so deciding the
// inputs lex-first implies everything else, as in an ATPG formula.
func TestFullTrailSkipsHeap(t *testing.T) {
	const a, b, g, h = 0, 1, 2, 3
	pos := func(v int) cnf.Lit { return cnf.NewLit(v, false) }
	neg := func(v int) cnf.Lit { return cnf.NewLit(v, true) }
	f := cnf.NewFormula(4)
	f.AddClause(neg(g), pos(a))
	f.AddClause(neg(g), pos(b))
	f.AddClause(pos(g), neg(a), neg(b))
	f.AddClause(pos(h), neg(a))
	f.AddClause(pos(h), neg(b))
	f.AddClause(neg(h), pos(a), pos(b))

	s := NewIncremental()
	s.Load(f, []int{a, b})
	st := &s.st
	// Drive the decision loop by hand so the heap can be inspected at
	// the moment the model is reported.
	for l := s.pickBranch(); l != litUndef; l = s.pickBranch() {
		if l != neg(len(st.trailLim)) {
			t.Fatalf("decision %d is %v, want the priority input set false", len(st.trailLim), l)
		}
		st.trailLim = append(st.trailLim, len(st.trail))
		s.enqueue(l, noClause)
		if s.propagate() != noClause {
			t.Fatal("conflict on a satisfiable formula")
		}
	}
	if len(st.trail) != st.numVars {
		t.Fatalf("model reported with %d of %d variables assigned", len(st.trail), st.numVars)
	}
	if got := st.heap.size(); got != st.numVars {
		t.Fatalf("heap holds %d of %d variables after the model: pickBranch drained it", got, st.numVars)
	}
	s.cancelUntil(0)
	sol := s.SolveAssuming(nil, Limits{})
	if sol.Status != Sat || !reflect.DeepEqual(sol.Model, []bool{false, false, false, false}) {
		t.Fatalf("SolveAssuming = %v %v, want the all-false model", sol.Status, sol.Model)
	}
	if sol.Stats.Decisions != 2 || st.heap.size() != st.numVars {
		t.Fatalf("%d decisions, heap %d of %d after the call; want 2 and a whole heap",
			sol.Stats.Decisions, st.heap.size(), st.numVars)
	}
}

// checkWarmLexLeast solves f under rng-drawn priority variables on a
// warm instance (learned budget learnedLimit bytes, 0 =
// DefaultLearnedLimit) and on a fresh one, and fails t unless both give
// the same verdict and, when SAT, the same lex-least priority
// projection. It reports whether the warm calls learned a clause.
func checkWarmLexLeast(t *testing.T, rng *rand.Rand, trial int, f *cnf.Formula, learnedLimit int64) bool {
	t.Helper()
	nVars := f.NumVars
	prio := rng.Perm(nVars)[:2+rng.Intn(nVars-2)]

	// Warm instance: solve under several assumption sets first so the
	// database holds learned clauses, then the probe call.
	warm := NewIncremental()
	warm.learnedLimit = learnedLimit
	warm.Load(f, prio)
	if warm.Failed() {
		return false
	}
	var warmLearned int64
	for k := 0; k < 6; k++ {
		v := rng.Intn(nVars)
		warmLearned += warm.SolveAssuming([]cnf.Lit{cnf.NewLit(v, k%2 == 0)}, Limits{}).Stats.Learned
		if learnedLimit == 1 && warm.NumLearned() != 0 {
			t.Fatalf("trial %d: %d learned clauses survive a 1-byte budget", trial, warm.NumLearned())
		}
	}
	fresh := NewIncremental()
	fresh.Load(f, prio)

	a := warm.SolveAssuming(nil, Limits{})
	b := fresh.SolveAssuming(nil, Limits{})
	if a.Status != b.Status {
		t.Fatalf("trial %d: warm %v fresh %v", trial, a.Status, b.Status)
	}
	if a.Status == Sat {
		for _, v := range prio {
			if a.Model[v] != b.Model[v] {
				t.Fatalf("trial %d: warm and fresh disagree on priority var %d\nwarm  %v\nfresh %v",
					trial, v, a.Model, b.Model)
			}
		}
		// And the projection really is lex-least over all models.
		best := lexLeastModel(f, prio)
		for i, v := range prio {
			if a.Model[v] != best[i] {
				t.Fatalf("trial %d: model not lex-least at priority slot %d (var %d)", trial, i, v)
			}
		}
	}
	return warmLearned > 0
}

// random3CNF returns nClauses random clauses of three distinct
// variables each.
func random3CNF(rng *rand.Rand, nVars, nClauses int) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		vars := rng.Perm(nVars)[:3]
		f.AddClause(cnf.NewLit(vars[0], rng.Intn(2) == 1),
			cnf.NewLit(vars[1], rng.Intn(2) == 1),
			cnf.NewLit(vars[2], rng.Intn(2) == 1))
	}
	return f
}

// lexLeastModel enumerates all models of f and returns the lex-least
// projection onto prio (false < true, earlier prio index more
// significant). Panics if f is UNSAT — callers check first.
func lexLeastModel(f *cnf.Formula, prio []int) []bool {
	var best []bool
	assign := make([]bool, f.NumVars)
	for pat := 0; pat < 1<<uint(f.NumVars); pat++ {
		for i := range assign {
			assign[i] = pat>>uint(i)&1 == 1
		}
		if !f.Eval(assign) {
			continue
		}
		proj := make([]bool, len(prio))
		for i, v := range prio {
			proj[i] = assign[v]
		}
		if best == nil || lexLess(proj, best) {
			best = proj
		}
	}
	if best == nil {
		panic("lexLeastModel: UNSAT formula")
	}
	return best
}

func lexLess(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return !a[i]
		}
	}
	return false
}

// TestLearnedDBBound drives a persistent instance through a hard
// instance with a tiny learned budget and checks the database stays
// bounded, that Load discards it — so the ATPG engine's per-worker
// database never outlives one region group — and that reduction never
// changes verdicts.
func TestLearnedDBBound(t *testing.T) {
	s := NewIncremental()
	s.learnedLimit = 4 << 10
	f := pigeonhole(7, 6) // UNSAT, conflict-heavy
	s.Load(f, nil)
	sol := s.SolveAssuming(nil, Limits{})
	if sol.Status != Unsat {
		t.Fatalf("pigeonhole: got %v, want UNSAT", sol.Status)
	}
	if got := s.LearnedBytes(); got > s.learnedLimit {
		t.Fatalf("learned DB %d bytes exceeds limit %d at call end", got, s.learnedLimit)
	}
	if sol.Stats.ClauseDBBytes != s.LearnedBytes() {
		t.Fatalf("ClauseDBBytes %d != LearnedBytes %d", sol.Stats.ClauseDBBytes, s.LearnedBytes())
	}
	if s.NumLearned() == 0 {
		t.Fatal("the pigeonhole solve kept no learned clause; Load has nothing to discard")
	}

	// Load is a cold start, and verdicts survive aggressive reduction:
	// solve a random series on the small-budget instance.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		g := randomFormula(rng, 4+rng.Intn(6), 2+rng.Intn(15))
		want := bruteForce(g)
		s.Load(g, nil)
		if s.NumLearned() != 0 || s.LearnedBytes() != 0 {
			t.Fatalf("formula %d: Load kept %d learned clauses (%d bytes)", i, s.NumLearned(), s.LearnedBytes())
		}
		if got := s.SolveAssuming(nil, Limits{}); got.Status != want {
			t.Fatalf("formula %d: got %v, want %v", i, got.Status, want)
		}
	}
}

// TestLearnedReuseCounters checks the reuse telemetry: on a formula
// hard enough to learn clauses, a second call under different
// assumptions must report kept clauses, and reuse may only come from
// kept clauses.
func TestLearnedReuseCounters(t *testing.T) {
	s := NewIncremental()
	// Pigeonhole gated behind an activation selector, the shape of the
	// region-grouped ATPG encoding: the formula is satisfiable (drop
	// the selector and everything is free), but assuming the selector
	// activates the UNSAT core — so the per-call refutation can never
	// latch Failed, and the learned proof survives for the next call.
	ph := pigeonhole(6, 5)
	f := cnf.NewFormula(ph.NumVars + 1)
	sel := ph.NumVars
	for _, c := range ph.Clauses {
		gated := append(append(cnf.Clause(nil), c...), cnf.NewLit(sel, true))
		f.AddClause(gated...)
	}
	s.Load(f, nil)

	assume := []cnf.Lit{cnf.NewLit(sel, false)}
	first := s.SolveAssuming(assume, Limits{})
	if first.Status != Unsat {
		t.Fatalf("first call: got %v", first.Status)
	}
	if s.Failed() {
		t.Fatal("gated pigeonhole latched Failed(); refutation depends on the assumption")
	}
	if first.Stats.LearnedKept != 0 {
		t.Fatalf("first call reports %d kept clauses on a fresh Load", first.Stats.LearnedKept)
	}
	if first.Stats.Learned == 0 {
		t.Fatal("pigeonhole solved without learning — test premise broken")
	}
	second := s.SolveAssuming(assume, Limits{})
	if second.Status != Unsat {
		t.Fatalf("second call: got %v", second.Status)
	}
	if second.Stats.LearnedKept == 0 {
		t.Fatal("second call kept no learned clauses from the first")
	}
	// Retention must show: either kept clauses participate in the new
	// proof (reuse counter) or they short-circuit it outright (far
	// fewer conflicts than the cold proof).
	if second.Stats.LearnedReused == 0 && second.Stats.Conflicts >= first.Stats.Conflicts {
		t.Fatalf("retention did not help: first %d conflicts, second %d with 0 reuse",
			first.Stats.Conflicts, second.Stats.Conflicts)
	}
	// And the instance is still live for other assumptions.
	free := s.SolveAssuming([]cnf.Lit{cnf.NewLit(sel, true)}, Limits{})
	if free.Status != Sat {
		t.Fatalf("deactivated selector: got %v, want SAT", free.Status)
	}
}

// TestIncrementalMaxConflictsResume checks the Unknown-and-resume
// contract: a call aborted by MaxConflicts leaves the instance valid,
// and re-calling with a bigger budget completes using the learned
// clauses already banked.
func TestIncrementalMaxConflictsResume(t *testing.T) {
	s := NewIncremental()
	s.MaxConflicts = 5
	s.Load(pigeonhole(7, 6), nil)
	sol := s.SolveAssuming(nil, Limits{})
	if sol.Status != Unknown {
		t.Fatalf("tiny budget: got %v, want UNKNOWN", sol.Status)
	}
	s.MaxConflicts = 0
	resumed := s.SolveAssuming(nil, Limits{})
	if resumed.Status != Unsat {
		t.Fatalf("resume: got %v, want UNSAT", resumed.Status)
	}
	if resumed.Stats.LearnedKept == 0 {
		t.Fatal("resume started from zero learned clauses")
	}
}

// TestActivityRescalePreservesOrder is the long-run regression test for
// the shared activity rescale: after the rescale triggers, the relative
// order of variable activities and the activity/varInc ratio must be
// exactly preserved, so decision quality does not decay over long
// incremental runs.
func TestActivityRescalePreservesOrder(t *testing.T) {
	activity := []float64{3e99, 1e100, 5e98, 7e99}
	varInc := 2e99
	ratios := make([]float64, len(activity))
	for i, a := range activity {
		ratios[i] = a / varInc
	}
	// Simulate the overflow bump that triggers the rescale.
	activity[1] += varInc
	rescaleActivities(activity, &varInc)
	for i, a := range activity {
		if a > activityLimit {
			t.Fatalf("activity[%d] = %g still above limit", i, a)
		}
		want := ratios[i]
		if i == 1 {
			want += 1 // the bump that overflowed
		}
		got := a / varInc
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("activity[%d]/varInc = %g, want %g: rescale skewed the ratio", i, got, want)
		}
	}

	// End-to-end: a long run on one instance must keep making
	// activity-ordered decisions (finite and correct) well past the
	// point where activities would overflow without varInc rescaling.
	s := NewIncremental()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		f := randomFormula(rng, 6+rng.Intn(5), 10+rng.Intn(20))
		want := bruteForce(f)
		s.Load(f, nil)
		if got := s.SolveAssuming(nil, Limits{}); got.Status != want {
			t.Fatalf("long-run formula %d: got %v, want %v", i, got.Status, want)
		}
	}
}
