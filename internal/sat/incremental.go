package sat

import (
	"sort"

	"atpgeasy/internal/cnf"
)

// Incremental is an assumption-based CDCL solver whose learned clauses,
// variable activities, and saved phases survive across calls. One
// instance is Loaded with a formula once and then queried many times
// with SolveAssuming — the MiniSat incremental interface. The ATPG
// engine uses it to solve every fault of a fanout region on one
// instance, so conflicts learned proving one fault untestable (or
// finding its vector) prune the search for the region's other faults.
//
// Determinism contract: when Load is given a priority variable list,
// every decision assigns the first unassigned priority variable to
// false before any activity-ordered decision is considered. The first
// model found then projects onto the priority variables as the
// lexicographically least assignment among all models consistent with
// the assumptions, regardless of which learned clauses happen to be in
// the database. This is what keeps region-grouped solving
// byte-identical to fresh-per-fault solving: both extract the same
// lex-least test vector. Once the priority list is exhausted, a full
// trail is a model: the search returns it as it stands, without popping
// the activity heap.
//
// DPLL is this core run one-shot: a fresh instance, Loaded without a
// priority order and solved once without assumptions.
//
// An Incremental value is not safe for concurrent use; the ATPG engine
// keeps one per worker.
type Incremental struct {
	// MaxConflicts bounds the conflicts of a single SolveAssuming call
	// (0 = unbounded). The call returns Unknown when exhausted; the
	// instance stays valid and a retry resumes with all learned
	// clauses intact.
	MaxConflicts int64

	// learnedLimit overrides DefaultLearnedLimit in tests (0 = the
	// default).
	learnedLimit int64

	st incState
}

// DefaultLearnedLimit bounds the learned-clause database in bytes. When
// learned storage exceeds it at a call boundary or a restart, the
// database is reduced to half of it, worst clauses (high LBD, low
// activity) first. Load discards every learned clause, so the ATPG
// engine's per-worker database never outlives one region group.
const DefaultLearnedLimit = 16 << 20

// incState carries the persistent solver state between SolveAssuming
// calls: the clause database and its clause slab (clauses must outlive
// the encoder buffers Load copies them from), the trail, the decision
// heuristics, per-learned-clause metadata (born call / LBD / activity),
// the priority branching order, and the failed latch that distinguishes
// global UNSAT from UNSAT-under-assumptions.
type incState struct {
	numVars  int
	clauses  [][]cnf.Lit // problem clauses [0,nProblem) then learned
	nProblem int
	slab     []cnf.Lit // backing storage for problem clause literals

	// watches[l] lists the watchers of literal l, which propagation
	// visits when l becomes false. A watcher w ≥ 0 is a clause index; a
	// problem clause of two literals is watched by ^other instead, the
	// clause's other literal coded negative, so propagation decides it
	// without reading the clause.
	watches [][]int32
	// vals[l] is literal l's value; l and l^1 are assigned and cleared
	// together, so testing a literal is one load. A model is read off the
	// positive literals, and a saved phase off the trail literal.
	vals  []cnf.Value
	level []int32
	// reason[v] names the clause that implied v: a clause index, noClause
	// for a decision, an assumption or a level-0 unit, or binReason(f) for
	// a binary problem clause whose other literal f is false.
	reason   []int32
	trail    []cnf.Lit
	trailLim []int
	qhead    int
	// bin holds the binary problem clause analyze resolves on: the
	// conflict propagate reported as binConflict, as (other, false
	// literal), or a binary reason as (implied, false literal).
	bin [2]cnf.Lit
	// learnt is analyze's buffer for the clause it derives.
	learnt []cnf.Lit

	activity []float64
	varInc   float64
	heap     varHeap
	phase    []bool
	seen     []bool

	// priority holds the branching variables decided lex-first: every
	// decision takes priority[prioCursor] (the first unassigned entry)
	// and assigns it false before any heap decision is considered.
	// prioCursor only moves forward within one decision sequence and
	// resets on every backtrack.
	priority   []int
	prioCursor int

	// Learned-clause metadata, parallel to clauses[nProblem:].
	born         []int64 // SolveAssuming call number that learned it
	lbd          []int32 // distinct decision levels at learn time (glue)
	act          []float64
	claInc       float64
	learnedBytes int64

	calls  int64 // SolveAssuming invocations since Load
	failed bool  // conflict at level 0: UNSAT regardless of assumptions

	stats Stats // per-call, reset by SolveAssuming

	base baseState // what every Load starts from (SetBase)
}

// NewIncremental returns an empty incremental solver; call Load before
// SolveAssuming.
func NewIncremental() *Incremental { return &Incremental{} }

// clauseBytes approximates the heap footprint of one learned clause:
// the literal array plus slice header and metadata entries.
func clauseBytes(n int) int64 { return int64(16*n + 48) }

func (s *Incremental) effectiveLearnedLimit() int64 {
	if s.learnedLimit > 0 {
		return s.learnedLimit
	}
	return DefaultLearnedLimit
}

// LearnedBytes reports the current learned-clause storage.
func (s *Incremental) LearnedBytes() int64 { return s.st.learnedBytes }

// NumLearned reports the learned clauses currently in the database.
func (s *Incremental) NumLearned() int { return len(s.st.clauses) - s.st.nProblem }

// Failed reports whether the loaded formula is unsatisfiable
// independent of any assumptions (a conflict was derived at decision
// level 0). Only then may a caller record an Unsat result as global.
func (s *Incremental) Failed() bool { return s.st.failed }

// sized returns buf with length n, reusing its backing array when large
// enough; contents are unspecified.
func sized[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// zeroed returns buf with length n and all elements zeroed.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	return make([]T, n)
}

// Load resets the instance to formula f with branching priority order
// prio (may be nil for pure activity branching); after SetBase, to the
// base followed by f. The clause data is copied: f may alias encoder
// buffers the caller will overwrite, and f itself is left untouched.
// Learned clauses, activities, and phases from any previous Load are
// discarded — Load is a cold start for a new formula; knowledge reuse
// happens across SolveAssuming calls, not across Loads. Load reuses the
// instance's buffers, so reloading a formula no larger than an earlier
// one allocates nothing.
func (s *Incremental) Load(f *cnf.Formula, prio []int) {
	st := &s.st
	b := &st.base
	n := max(f.NumVars, b.numVars)
	st.numVars = n
	st.failed = b.failed
	st.calls = 0
	st.qhead = 0
	st.varInc = 1
	st.claInc = 1
	st.learnedBytes = 0
	st.prioCursor = 0
	st.trail = st.trail[:0]
	st.trailLim = st.trailLim[:0]
	st.born = st.born[:0]
	st.lbd = st.lbd[:0]
	st.act = st.act[:0]
	st.clauses = st.clauses[:0]

	st.vals = zeroed(st.vals, 2*n) // Unassigned == 0
	st.level = zeroed(st.level, n)
	st.activity = sized(st.activity, n)
	clear(st.activity[copy(st.activity, b.activity):])
	st.phase = zeroed(st.phase, n)
	st.seen = zeroed(st.seen, n)
	st.reason = sized(st.reason, n)
	for i := range st.reason {
		st.reason[i] = noClause
	}
	// A longer watch table keeps the lists it had, so their grown
	// capacity serves the next formula too.
	if cap(st.watches) < 2*n {
		st.watches = append(st.watches[:cap(st.watches)], make([][]int32, 2*n-cap(st.watches))...)
	}
	st.watches = st.watches[:2*n]
	for i := range st.watches {
		st.watches[i] = st.watches[i][:0]
	}
	st.priority = append(st.priority[:0], prio...)

	// The heap aliases the activity slice, which sized may have
	// reallocated.
	st.heap.reset(st.activity)

	// Restore the base: its literals in their normalised order (solving
	// reorders them in place), its clauses watched in order, and its
	// units. The slab is sized up front, so clause views never move.
	need := len(b.slab)
	for _, c := range f.Clauses {
		need += len(c)
	}
	if cap(st.slab) < need {
		st.slab = make([]cnf.Lit, 0, need)
	}
	st.slab = append(st.slab[:0], b.slab...)
	start := int32(0)
	for _, end := range b.ends {
		s.watch(st.slab[start:end:end])
		start = end
	}
	for _, l := range b.units {
		if !s.enqueue(l, noClause) {
			st.failed = true
		}
	}

	// Copy each problem clause into the slab, normalize it there and
	// watch it; a tautology, unit or empty clause gives its slab space
	// back. Each occurrence bumps its variable's initial activity, so early
	// decisions favor frequently constrained variables.
	for _, c := range f.Clauses {
		start := len(st.slab)
		st.slab = append(st.slab, c...)
		norm, taut := cnf.Clause(st.slab[start:]).Normalize()
		st.slab = st.slab[:start] // re-extended below for a watched clause
		if taut {
			continue
		}
		switch len(norm) {
		case 0:
			st.failed = true
		case 1:
			if !s.enqueue(norm[0], noClause) {
				st.failed = true
			}
		default:
			end := start + len(norm)
			st.slab = st.slab[:end]
			s.watch(st.slab[start:end:end])
		}
		for _, l := range norm {
			st.activity[l.Var()] += 0.1
		}
	}
	st.nProblem = len(st.clauses)
	st.heap.rebuild()

	if !st.failed && s.propagate() != noClause {
		st.failed = true
	}
}

// SetBase makes f the base formula of every later Load, replacing any
// earlier one: Load(g, prio) then resets the instance to the
// concatenation f ++ g over max(f.NumVars, g.NumVars) variables. SetBase
// normalises f's clauses into its own copy and counts their activities
// once; every Load restores them, watches them and enqueues their units
// by copying, and so reaches exactly the state a plain Load of the
// concatenation reaches: the same clause literal order, watch lists,
// activities, heap, level-0 trail and Failed. Decisions, propagations and
// conflicts therefore do not depend on the split, and learned clauses
// still die at every Load. The instance itself is untouched until the
// next Load. The ATPG engine sets a worker's good copy of the circuit as
// its base, and each region group loads only its own part on top of it.
func (s *Incremental) SetBase(f *cnf.Formula) {
	b := &s.st.base
	b.numVars, b.failed = f.NumVars, false
	need := 0
	for _, c := range f.Clauses {
		need += len(c)
	}
	b.slab = sized(b.slab, need)[:0]
	b.ends = sized(b.ends, len(f.Clauses))[:0]
	b.units = b.units[:0]
	b.activity = zeroed(b.activity, f.NumVars)
	// Load's normalisation, kept: a tautology is dropped, an empty clause
	// fails, and a unit is enqueued at each Load.
	for _, c := range f.Clauses {
		start := len(b.slab)
		b.slab = append(b.slab, c...)
		norm, taut := cnf.Clause(b.slab[start:]).Normalize()
		b.slab = b.slab[:start]
		if taut {
			continue
		}
		switch len(norm) {
		case 0:
			b.failed = true
		case 1:
			b.units = append(b.units, norm[0])
		default:
			b.slab = b.slab[:start+len(norm)]
			b.ends = append(b.ends, int32(len(b.slab)))
		}
		for _, l := range norm {
			b.activity[l.Var()] += 0.1
		}
	}
}

// baseState is the base formula as SetBase normalised it: the clauses
// of two or more literals back to back in slab, clause i ending at
// ends[i]; the unit literals in order; each variable's initial activity;
// and whether the base holds an empty clause.
type baseState struct {
	numVars  int
	slab     []cnf.Lit
	ends     []int32
	units    []cnf.Lit
	activity []float64
	failed   bool
}

// watch appends problem clause cl and watches its first two literals.
func (s *Incremental) watch(cl []cnf.Lit) {
	st := &s.st
	st.watchProblem(int32(len(st.clauses)), cl)
	st.clauses = append(st.clauses, cl)
}

// watchProblem watches problem clause ci, whose literals are cl, on its
// first two literals: a binary clause by its other literal, any longer
// one by its index.
func (st *incState) watchProblem(ci int32, cl []cnf.Lit) {
	if len(cl) == 2 {
		st.watches[cl[0]] = append(st.watches[cl[0]], ^int32(cl[1]))
		st.watches[cl[1]] = append(st.watches[cl[1]], ^int32(cl[0]))
		return
	}
	st.watches[cl[0]] = append(st.watches[cl[0]], ci)
	st.watches[cl[1]] = append(st.watches[cl[1]], ci)
}

// Clause codes. propagate returns the clause it found falsified, and
// reason[v] names the clause that implied v; a code ≥ 0 is an index into
// clauses. Search never reads a binary problem clause: as a reason it is
// coded by its false literal (binReason), and as a conflict propagate
// leaves it in bin and returns binConflict.
const (
	noClause    int32 = -1 // no conflict; no reason (a decision, an assumption or a level-0 unit)
	binConflict int32 = -2
)

// binReason codes the binary problem clause (p ∨ f), f false, as the
// reason for p; every such code is below binConflict.
func binReason(f cnf.Lit) int32 { return -3 - int32(f) }

// binReasonLit returns the false literal of binary reason code r.
func binReasonLit(r int32) cnf.Lit { return cnf.Lit(-3 - r) }

// SolveAssuming searches for a model of the loaded formula under the
// given assumption literals. Outcomes:
//
//   - Sat: Model is a satisfying assignment consistent with the
//     assumptions; with a priority order its projection onto the
//     priority variables is lex-least.
//   - Unsat: no model under these assumptions. The formula itself may
//     still be satisfiable under other assumptions unless Failed()
//     reports true — callers must not record a plain Unsat as global.
//   - Unknown: MaxConflicts or Limits exhausted; the instance remains
//     valid and a retry resumes with all learned clauses intact.
//
// The solver is left fully backtracked on return, ready for the next
// call. Per-call Stats report LearnedKept (clauses surviving from
// earlier calls), LearnedReused (of those, ones that participated in
// this call's conflict analyses), and ClauseDBBytes (learned storage
// at call end).
func (s *Incremental) SolveAssuming(assumps []cnf.Lit, lim Limits) Solution {
	st := &s.st
	st.calls++
	st.stats = Stats{LearnedKept: int64(len(st.born))}
	defer s.cancelUntil(0)

	// finish backtracks, enforces the learned budget (reduction needs
	// level 0, so call boundaries and restarts are where it runs), and
	// snapshots the DB gauge. Models are extracted before finish.
	finish := func(status Status, model []bool) Solution {
		s.cancelUntil(0)
		if st.learnedBytes > s.effectiveLearnedLimit() {
			s.reduceDB(s.effectiveLearnedLimit())
		}
		st.stats.ClauseDBBytes = st.learnedBytes
		return Solution{Status: status, Model: model, Stats: st.stats}
	}

	if st.failed {
		return finish(Unsat, nil)
	}
	if lim.expired() {
		return finish(Unknown, nil)
	}
	restartLimit := int64(100)
	var conflicts, conflictsAtRestart, steps int64
	for {
		steps++
		if steps%limitCheck == 0 && lim.expired() {
			return finish(Unknown, nil)
		}
		confl := s.propagate()
		if confl != noClause {
			st.stats.Conflicts++
			conflicts++
			conflictsAtRestart++
			if len(st.trailLim) == 0 {
				// Conflict with no decisions or assumptions on the
				// trail: globally UNSAT.
				st.failed = true
				return finish(Unsat, nil)
			}
			if len(st.trailLim) <= len(assumps) {
				// Every decision level on the trail is an assumption
				// level, so the conflict refutes the assumptions, not
				// the formula: Unsat for this call only. If a clause
				// learned in an earlier call delivered the refutation,
				// credit the reuse counter — this is the common case
				// where retention short-circuits a whole re-proof.
				if li := int(confl) - st.nProblem; li >= 0 && st.born[li] < st.calls {
					st.stats.LearnedReused++
				}
				return finish(Unsat, nil)
			}
			if s.MaxConflicts > 0 && conflicts > s.MaxConflicts {
				return finish(Unknown, nil)
			}
			learnt, back := s.analyze(confl)
			// Backjumping below the assumption prefix is allowed:
			// the decision loop re-asserts popped assumptions. A unit
			// learnt lands at level 0 and persists across calls — it
			// is implied by the formula alone, since conflict analysis
			// resolves only over clauses of the database.
			s.cancelUntil(back)
			if !s.learn(learnt) {
				st.failed = true
				return finish(Unsat, nil)
			}
			st.varInc /= 0.95
			s.decayClauseActivity()
			continue
		}

		if conflictsAtRestart >= restartLimit {
			conflictsAtRestart = 0
			restartLimit = restartLimit * 3 / 2
			s.cancelUntil(0)
			if st.learnedBytes > s.effectiveLearnedLimit() {
				s.reduceDB(s.effectiveLearnedLimit())
			}
			continue
		}

		// Assert the next pending assumption, one decision level per
		// assumption. An assumption already true still pushes a dummy
		// level so trail levels map 1:1 onto assumption indices; an
		// assumption already false contradicts the formula or an
		// earlier assumption — Unsat for this call.
		if lvl := len(st.trailLim); lvl < len(assumps) {
			a := assumps[lvl]
			switch st.vals[a] {
			case cnf.True:
				st.trailLim = append(st.trailLim, len(st.trail))
			case cnf.False:
				return finish(Unsat, nil)
			default:
				st.stats.Decisions++
				st.trailLim = append(st.trailLim, len(st.trail))
				s.enqueue(a, noClause)
			}
			continue
		}

		l := s.pickBranch()
		if l == litUndef {
			model := make([]bool, st.numVars)
			for i := range model {
				model[i] = st.vals[2*i] == cnf.True
			}
			return finish(Sat, model)
		}
		st.stats.Decisions++
		if d := len(st.trailLim) + 1; d > st.stats.MaxDepth {
			st.stats.MaxDepth = d
		}
		st.trailLim = append(st.trailLim, len(st.trail))
		s.enqueue(l, noClause)
	}
}

// enqueue asserts literal l with the given reason code at the current
// decision level, reporting false if l is already false.
func (s *Incremental) enqueue(l cnf.Lit, reason int32) bool {
	st := &s.st
	switch st.vals[l] {
	case cnf.True:
		return true
	case cnf.False:
		return false
	}
	st.imply(l, int32(len(st.trailLim)), reason)
	return true
}

// imply assigns the unassigned literal l true at decision level lvl.
func (st *incState) imply(l cnf.Lit, lvl, reason int32) {
	st.vals[l] = cnf.True
	st.vals[l^1] = cnf.False
	v := l.Var()
	st.level[v] = lvl
	st.reason[v] = reason
	st.trail = append(st.trail, l)
}

// propagate performs two-watched-literal unit propagation, returning
// the code of a conflicting clause or noClause.
func (s *Incremental) propagate() int32 {
	st := &s.st
	vals, clauses, watches := st.vals, st.clauses, st.watches
	lvl := int32(len(st.trailLim))
	for st.qhead < len(st.trail) {
		p := st.trail[st.qhead]
		st.qhead++
		st.stats.Propagations++
		falseLit := p.Not()
		ws := watches[falseLit]
		n := 0 // ws[:n] holds the watchers kept so far
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if w < 0 {
				// The binary problem clause (falseLit ∨ other), decided
				// off its watcher.
				ws[n] = w
				n++
				other := cnf.Lit(^w)
				switch vals[other] {
				case cnf.Unassigned:
					st.imply(other, lvl, binReason(falseLit))
				case cnf.False:
					n += copy(ws[n:], ws[i+1:])
					watches[falseLit] = ws[:n]
					st.bin = [2]cnf.Lit{other, falseLit}
					return binConflict
				}
				continue
			}
			c := clauses[w]
			if c[0] == falseLit {
				c[0], c[1] = c[1], falseLit
			}
			first := c[0]
			if vals[first] == cnf.True {
				ws[n] = w
				n++
				continue
			}
			moved := false
			for k := 2; k < len(c); k++ {
				if l := c[k]; vals[l] != cnf.False {
					c[1], c[k] = l, falseLit
					watches[l] = append(watches[l], w)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[n] = w
			n++
			if vals[first] == cnf.False {
				n += copy(ws[n:], ws[i+1:])
				watches[falseLit] = ws[:n]
				return w
			}
			st.imply(first, lvl, w)
		}
		watches[falseLit] = ws[:n]
	}
	return noClause
}

// bumpVar bumps a variable's VSIDS activity, rescaling activities and
// varInc together on overflow.
func (s *Incremental) bumpVar(v int) {
	st := &s.st
	st.activity[v] += st.varInc
	if st.activity[v] > activityLimit {
		rescaleActivities(st.activity, &st.varInc)
	}
	st.heap.update(v)
}

// analyze derives the 1-UIP learned clause for conflict confl and the
// backjump level. It also bumps the activity of every learned clause on
// the conflict chain and counts toward Stats.LearnedReused the ones born
// in earlier calls — the direct measure of cross-fault knowledge reuse.
func (s *Incremental) analyze(confl int32) ([]cnf.Lit, int) {
	st := &s.st
	learnt := append(st.learnt[:0], litUndef)
	counter := 0
	p := litUndef
	index := len(st.trail) - 1
	c := st.bin[:] // a binConflict: propagate left the clause in bin
	for {
		if confl >= 0 {
			if li := int(confl) - st.nProblem; li >= 0 {
				s.bumpClause(li)
				if st.born[li] < st.calls {
					st.stats.LearnedReused++
				}
			}
			c = st.clauses[confl]
		}
		for _, q := range c {
			if q == p {
				continue
			}
			v := q.Var()
			if !st.seen[v] && st.level[v] > 0 {
				st.seen[v] = true
				s.bumpVar(v)
				if int(st.level[v]) == len(st.trailLim) {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		for !st.seen[st.trail[index].Var()] {
			index--
		}
		p = st.trail[index]
		index--
		st.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = st.reason[p.Var()]
		if confl < binConflict {
			// A binary problem clause implied p: resolve on (p ∨ f).
			st.bin = [2]cnf.Lit{p, binReasonLit(confl)}
			c = st.bin[:]
		}
	}
	learnt[0] = p.Not()
	back := 0
	for i := 1; i < len(learnt); i++ {
		if int(st.level[learnt[i].Var()]) > back {
			back = int(st.level[learnt[i].Var()])
		}
	}
	for _, l := range learnt[1:] {
		st.seen[l.Var()] = false
	}
	st.learnt = learnt
	return learnt, back
}

// learn installs a freshly derived clause and asserts learnt[0],
// recording born call, LBD, and activity for the reduction policy. It
// reports false on a root-level contradiction (global UNSAT).
func (s *Incremental) learn(learnt []cnf.Lit) bool {
	st := &s.st
	st.stats.Learned++
	if len(learnt) == 1 {
		return s.enqueue(learnt[0], noClause)
	}
	cl := append([]cnf.Lit(nil), learnt...)
	// Watch the asserting literal and a deepest-level literal so the
	// clause stays correctly watched after the backjump.
	deepest := 1
	for i := 2; i < len(cl); i++ {
		if st.level[cl[i].Var()] > st.level[cl[deepest].Var()] {
			deepest = i
		}
	}
	cl[1], cl[deepest] = cl[deepest], cl[1]
	ci := int32(len(st.clauses))
	st.clauses = append(st.clauses, cl)
	st.watches[cl[0]] = append(st.watches[cl[0]], ci)
	st.watches[cl[1]] = append(st.watches[cl[1]], ci)
	st.born = append(st.born, st.calls)
	st.lbd = append(st.lbd, s.computeLBD(cl))
	st.act = append(st.act, st.claInc)
	st.learnedBytes += clauseBytes(len(cl))
	return s.enqueue(cl[0], ci)
}

// computeLBD counts distinct decision levels among the clause's
// literals (the "glue" of glucose-style reduction). Clauses are short,
// so the quadratic scan beats maintaining a per-level stamp array.
func (s *Incremental) computeLBD(cl []cnf.Lit) int32 {
	st := &s.st
	var lbd int32
	for i, l := range cl {
		lv := st.level[l.Var()]
		dup := false
		for _, m := range cl[:i] {
			if st.level[m.Var()] == lv {
				dup = true
				break
			}
		}
		if !dup {
			lbd++
		}
	}
	return lbd
}

// bumpClause bumps a learned clause's activity (li indexes the learned
// tail), rescaling all clause activities on overflow.
func (s *Incremental) bumpClause(li int) {
	st := &s.st
	st.act[li] += st.claInc
	if st.act[li] > activityLimit {
		for i := range st.act {
			st.act[i] *= activityRescale
		}
		st.claInc *= activityRescale
	}
}

func (s *Incremental) decayClauseActivity() {
	st := &s.st
	st.claInc /= 0.999
	if st.claInc > activityLimit {
		for i := range st.act {
			st.act[i] *= activityRescale
		}
		st.claInc *= activityRescale
	}
}

// cancelUntil backtracks to decision level lvl, saving phases. The
// priority cursor resets: lex branching restarts from the first
// priority variable after any backtrack.
func (s *Incremental) cancelUntil(lvl int) {
	st := &s.st
	if len(st.trailLim) <= lvl {
		return
	}
	bound := st.trailLim[lvl]
	for i := len(st.trail) - 1; i >= bound; i-- {
		l := st.trail[i]
		v := l.Var()
		st.phase[v] = !l.IsNeg() // the value v had
		st.vals[l], st.vals[l^1] = cnf.Unassigned, cnf.Unassigned
		if !st.heap.contains(v) {
			st.heap.push(v)
		}
	}
	st.trail = st.trail[:bound]
	st.trailLim = st.trailLim[:lvl]
	st.qhead = bound
	st.prioCursor = 0
}

// pickBranch returns the next decision literal: the first unassigned
// priority variable, always assigned false, else the highest-activity
// unassigned variable with its saved phase. litUndef means every
// variable is assigned (a model). A full trail is reported before the
// heap is touched: draining it would sift down every assigned variable
// only for cancelUntil to push them all back, and when the priority
// variables imply all the others (an ATPG formula's primary inputs) that
// drain is most of a 0-conflict solve.
func (s *Incremental) pickBranch() cnf.Lit {
	st := &s.st
	for st.prioCursor < len(st.priority) {
		v := st.priority[st.prioCursor]
		if st.vals[2*v] == cnf.Unassigned {
			return cnf.NewLit(v, true)
		}
		st.prioCursor++
	}
	if len(st.trail) == st.numVars {
		return litUndef
	}
	for st.heap.size() > 0 {
		v := st.heap.pop()
		if st.vals[2*v] == cnf.Unassigned {
			return cnf.NewLit(v, !st.phase[v])
		}
	}
	return litUndef
}

// reduceDB drops learned clauses, worst (high LBD, low activity)
// first, until learned storage fits in half of budget. It requires
// decision level 0: level-0 reasons are cleared (conflict analysis
// never traverses level-0 variables, so they are never dereferenced)
// and every watch list is rebuilt. Deleting learned clauses never
// removes models, so the lex-least determinism contract is unaffected.
func (s *Incremental) reduceDB(budget int64) {
	st := &s.st
	nLearned := len(st.clauses) - st.nProblem
	if nLearned == 0 || len(st.trailLim) != 0 {
		return
	}
	for i := range st.reason {
		st.reason[i] = noClause
	}

	// Rank learned clauses best-first with a stable index tiebreak so
	// reduction is deterministic.
	order := make([]int, nLearned)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if st.lbd[ia] != st.lbd[ib] {
			return st.lbd[ia] < st.lbd[ib]
		}
		if st.act[ia] != st.act[ib] {
			return st.act[ia] > st.act[ib]
		}
		return ia < ib
	})
	keep := make([]bool, nLearned)
	var kept int64
	target := budget / 2
	for _, li := range order {
		b := clauseBytes(len(st.clauses[st.nProblem+li]))
		if kept+b > target {
			continue
		}
		keep[li] = true
		kept += b
	}

	// Compact the learned tail in place; problem clause indices are
	// stable, so only learned indices change and those are re-derived
	// by the watch rebuild below.
	w := 0
	for li := 0; li < nLearned; li++ {
		if !keep[li] {
			continue
		}
		st.clauses[st.nProblem+w] = st.clauses[st.nProblem+li]
		st.born[w] = st.born[li]
		st.lbd[w] = st.lbd[li]
		st.act[w] = st.act[li]
		w++
	}
	st.clauses = st.clauses[:st.nProblem+w]
	st.born = st.born[:w]
	st.lbd = st.lbd[:w]
	st.act = st.act[:w]
	st.learnedBytes = kept

	// Rebuild every watch list, watching two non-false literals per
	// clause. After complete level-0 propagation a clause has either
	// two such literals or exactly one, which is then true on the
	// trail (a level-0 implied literal) — watching it with any second
	// literal is sound because the true watch short-circuits
	// propagation. A binary problem clause watches both its literals,
	// by watcher code, in clause order as Load does.
	for i := range st.watches {
		st.watches[i] = st.watches[i][:0]
	}
	for ci, c := range st.clauses {
		if ci < st.nProblem && len(c) == 2 {
			st.watchProblem(int32(ci), c)
			continue
		}
		w0, w1 := -1, -1
		for k, l := range c {
			if st.vals[l] != cnf.False {
				if w0 < 0 {
					w0 = k
				} else {
					w1 = k
					break
				}
			}
		}
		if w0 > 0 {
			c[0], c[w0] = c[w0], c[0]
			if w1 == 0 {
				w1 = w0
			}
		}
		if w1 > 1 {
			c[1], c[w1] = c[w1], c[1]
		}
		st.watches[c[0]] = append(st.watches[c[0]], int32(ci))
		st.watches[c[1]] = append(st.watches[c[1]], int32(ci))
	}
}
