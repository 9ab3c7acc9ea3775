package sat

import (
	"atpgeasy/internal/cnf"
)

// Simple is simple backtracking with a fixed static variable ordering and
// no caching — the baseline that Algorithm 1 augments. Order is the static
// variable ordering h (nil = variable index order). MaxNodes, when
// positive, aborts the search with Unknown after that many backtracking
// nodes.
type Simple struct {
	Order    []int
	MaxNodes int64
}

// Solve decides satisfiability by depth-first search over the ordering.
func (s *Simple) Solve(f *cnf.Formula) Solution {
	bt, ok := newBacktracker(f, s.Order, btConfig{maxNodes: s.MaxNodes})
	if !ok {
		return Solution{Status: Unknown}
	}
	return bt.run()
}

// Caching is Algorithm 1 of the paper: simple backtracking with a fixed
// variable ordering plus a hash table T of unsatisfiable sub-formulas.
// Before a sub-formula is explored it is looked up in T; on a hit the
// branch is pruned. When both branches of a node fail, the node's residual
// sub-formula is inserted into T.
//
// Sub-formulas are cached as sets of clauses: two sub-formulas are
// identical iff they have the same clause set (functional equivalence is
// deliberately not recognized — footnote 2 of the paper).
//
// The table is keyed on an incrementally maintained 128-bit digest of the
// residual clause set, updated in O(occurrences of v) per assignment
// instead of rescanning the open literals at every node, and bounded by
// CacheLimit with second-chance eviction (see cache.go). Equal residuals
// always digest equally; distinct residuals collide with probability
// ~2^-128 per pair, and VerifyKeys removes even that.
type Caching struct {
	Order    []int
	MaxNodes int64
	// CacheLimit bounds the sub-formula table's memory in bytes; 0 means
	// DefaultCacheLimit. A full table evicts second-chance, losing only
	// pruning opportunities, never soundness.
	CacheLimit int64
	// VerifyKeys additionally stores each entry's exact residual byte key
	// and rejects digest matches whose keys differ (counted in
	// Stats.CacheCollisions). This removes the residual 128-bit collision
	// risk at the cost of rebuilding the byte key at every node — the
	// allocation and time profile of the original string-keyed table.
	// Tests and internal/core's DCSF cross-checks use it; production runs
	// should leave it off.
	VerifyKeys bool

	// weakHash degrades the digest to a constant so tests can force
	// collisions and exercise the VerifyKeys fallback.
	weakHash bool
}

// Solve runs Algorithm 1.
func (s *Caching) Solve(f *cnf.Formula) Solution {
	bt, ok := newBacktracker(f, s.Order, btConfig{
		maxNodes:   s.MaxNodes,
		useCache:   true,
		cacheLimit: s.CacheLimit,
		verifyKeys: s.VerifyKeys,
		weakHash:   s.weakHash,
	})
	if !ok {
		return Solution{Status: Unknown}
	}
	return bt.run()
}

// btConfig carries the per-solve configuration into newBacktracker.
type btConfig struct {
	maxNodes   int64
	useCache   bool
	cacheLimit int64
	verifyKeys bool
	weakHash   bool
}

// backtracker is the shared engine behind Simple and Caching. Clause
// bookkeeping is incremental: per-clause counts of satisfied and falsified
// literals give O(occurrences) assignment updates, null-clause detection,
// and all-satisfied detection. In cache mode the residual digest is
// maintained with the same incrementality:
//
//	clsSum[ci]     sum of litDig over clause ci's unassigned literals
//	clsContrib[ci] mixClause(clsSum[ci]) as of when ci last became open
//	dig            sum of clsContrib over open (satCnt == 0) clauses
//
// Assigning a variable subtracts its literal hash from the sums of the
// clauses it occurs in and refreshes the contribution of those still
// open; unassigning adds it back. Because assignments unwind LIFO, a
// clause's contribution is recomputed from its (correctly maintained) sum
// whenever the clause reopens, so dig always equals the digest a full
// rescan would produce.
type backtracker struct {
	f        *cnf.Formula
	order    []int
	useCache bool
	verify   bool
	weak     bool
	maxNodes int64

	assign   []cnf.Value
	occOff   []int32 // CSR offsets: literal l occurs in occ[occOff[l]:occOff[l+1]]
	occ      []int32
	satCnt   []int32 // per clause: literals currently true
	falseCnt []int32 // per clause: literals currently false
	numSat   int     // clauses with satCnt > 0
	numNull  int     // clauses with satCnt == 0 && falseCnt == len

	dig        digest
	clsSum     []digest
	clsContrib []digest
	litDig     []digest

	table   cacheTable
	stats   Stats
	aborted bool
}

// newBacktracker prepares a search over f in buffers of its own. It
// reports false when the ordering is invalid.
func newBacktracker(f *cnf.Formula, order []int, cfg btConfig) (*backtracker, bool) {
	ord, ok := checkOrder(order, f.NumVars)
	if !ok {
		return nil, false
	}
	n, m := f.NumVars, len(f.Clauses)
	bt := &backtracker{
		f:        f,
		order:    ord,
		useCache: cfg.useCache,
		verify:   cfg.verifyKeys,
		weak:     cfg.weakHash,
		maxNodes: cfg.maxNodes,
		assign:   make([]cnf.Value, n),
		satCnt:   make([]int32, m),
		falseCnt: make([]int32, m),
	}

	// Occurrence lists in CSR form: one flat slice plus offsets, built by
	// counting sort, so a literal's occurrences are contiguous.
	off := make([]int32, 2*n+1)
	total := 0
	for _, c := range f.Clauses {
		total += len(c)
	}
	occ := make([]int32, total)
	for _, c := range f.Clauses {
		for _, l := range c {
			off[int(l)+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for ci, c := range f.Clauses {
		for _, l := range c {
			occ[off[int(l)]] = int32(ci)
			off[int(l)]++
		}
	}
	// The fill advanced each cursor to its range's end (= the next
	// literal's start); shift right to restore start offsets.
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	bt.occOff, bt.occ = off, occ

	for _, c := range f.Clauses {
		if len(c) == 0 {
			bt.numNull++ // empty clause in the input: trivially unsat
		}
	}

	if cfg.useCache {
		bt.litDig = make([]digest, 2*n)
		for l := range bt.litDig {
			bt.litDig[l] = litDigest(cnf.Lit(l))
		}
		bt.clsSum = make([]digest, m)
		bt.clsContrib = make([]digest, m)
		for ci, c := range f.Clauses {
			var sum digest
			for _, l := range c {
				sum.add(bt.litDig[l])
			}
			bt.clsSum[ci] = sum
			contrib := bt.mixClause(sum)
			bt.clsContrib[ci] = contrib
			bt.dig.add(contrib)
		}
		bt.table.init(cfg.cacheLimit)
	}
	return bt, true
}

// mixClause turns a clause's literal-hash sum into its digest
// contribution. The mix prevents sums of different clauses from
// combining linearly (e.g. {a,b}+{c} vs {a,c}+{b}).
func (bt *backtracker) mixClause(sum digest) digest {
	if bt.weak {
		return digest{1, 1} // test hook: every clause set of equal size collides
	}
	a := mix64(sum[0] ^ 0xa0761d6478bd642f)
	return digest{a, mix64(sum[1] ^ a)}
}

// occOf returns the clauses containing literal l.
func (bt *backtracker) occOf(l cnf.Lit) []int32 {
	return bt.occ[bt.occOff[l]:bt.occOff[int(l)+1]]
}

func (bt *backtracker) run() Solution {
	if bt.numNull > 0 {
		return bt.finish(Solution{Status: Unsat})
	}
	if bt.numSat == len(bt.f.Clauses) || bt.f.NumVars == 0 {
		// No clauses (or all trivially satisfied): SAT with all-false model.
		return bt.finish(Solution{Status: Sat, Model: make([]bool, bt.f.NumVars)})
	}
	sat := bt.search(0, false) || (!bt.aborted && bt.search(0, true))
	if bt.aborted {
		return bt.finish(Solution{Status: Unknown})
	}
	if !sat {
		return bt.finish(Solution{Status: Unsat})
	}
	model := make([]bool, bt.f.NumVars)
	for v := range model {
		model[v] = bt.assign[v] == cnf.True
	}
	return bt.finish(Solution{Status: Sat, Model: model})
}

// finish attaches the search and cache statistics to the solution.
func (bt *backtracker) finish(sol Solution) Solution {
	if bt.useCache {
		t := &bt.table
		bt.stats.CacheEntries = t.live
		bt.stats.CacheEvictions = t.evictions
		bt.stats.CacheBytes = t.bytes()
	}
	sol.Stats = bt.stats
	return sol
}

// assignVar sets variable v to value b and updates clause counts — and,
// in cache mode, the residual digest — in O(occurrences of v).
func (bt *backtracker) assignVar(v int, b bool) {
	bt.assign[v] = cnf.ValueOf(b)
	satLit, falseLit := cnf.NewLit(v, false), cnf.NewLit(v, true)
	if !b {
		satLit, falseLit = falseLit, satLit
	}
	if !bt.useCache {
		for _, ci := range bt.occOf(satLit) {
			if bt.satCnt[ci] == 0 {
				bt.numSat++
			}
			bt.satCnt[ci]++
		}
		for _, ci := range bt.occOf(falseLit) {
			bt.falseCnt[ci]++
			if bt.satCnt[ci] == 0 && int(bt.falseCnt[ci]) == len(bt.f.Clauses[ci]) {
				bt.numNull++
			}
		}
		return
	}
	dSat, dFalse := bt.litDig[satLit], bt.litDig[falseLit]
	for _, ci := range bt.occOf(satLit) {
		if bt.satCnt[ci] == 0 {
			bt.numSat++
			bt.dig.sub(bt.clsContrib[ci]) // clause leaves the residual
		}
		bt.satCnt[ci]++
		bt.clsSum[ci].sub(dSat)
	}
	for _, ci := range bt.occOf(falseLit) {
		bt.clsSum[ci].sub(dFalse)
		bt.falseCnt[ci]++
		if bt.satCnt[ci] == 0 {
			// Still open: its residual shrank, refresh its contribution.
			bt.dig.sub(bt.clsContrib[ci])
			contrib := bt.mixClause(bt.clsSum[ci])
			bt.clsContrib[ci] = contrib
			bt.dig.add(contrib)
			if int(bt.falseCnt[ci]) == len(bt.f.Clauses[ci]) {
				bt.numNull++
			}
		}
	}
}

// unassignVar exactly undoes assignVar for the LIFO-most assignment.
func (bt *backtracker) unassignVar(v int) {
	b := bt.assign[v] == cnf.True
	satLit, falseLit := cnf.NewLit(v, false), cnf.NewLit(v, true)
	if !b {
		satLit, falseLit = falseLit, satLit
	}
	if !bt.useCache {
		for _, ci := range bt.occOf(satLit) {
			bt.satCnt[ci]--
			if bt.satCnt[ci] == 0 {
				bt.numSat--
			}
		}
		for _, ci := range bt.occOf(falseLit) {
			if bt.satCnt[ci] == 0 && int(bt.falseCnt[ci]) == len(bt.f.Clauses[ci]) {
				bt.numNull--
			}
			bt.falseCnt[ci]--
		}
		bt.assign[v] = cnf.Unassigned
		return
	}
	dSat, dFalse := bt.litDig[satLit], bt.litDig[falseLit]
	for _, ci := range bt.occOf(satLit) {
		bt.satCnt[ci]--
		bt.clsSum[ci].add(dSat)
		if bt.satCnt[ci] == 0 {
			bt.numSat--
			// Clause reopens: recompute its contribution from the sum (the
			// cached one predates the literals assigned while it was
			// satisfied).
			contrib := bt.mixClause(bt.clsSum[ci])
			bt.clsContrib[ci] = contrib
			bt.dig.add(contrib)
		}
	}
	for _, ci := range bt.occOf(falseLit) {
		if bt.satCnt[ci] == 0 {
			if int(bt.falseCnt[ci]) == len(bt.f.Clauses[ci]) {
				bt.numNull--
			}
			bt.dig.sub(bt.clsContrib[ci])
		}
		bt.falseCnt[ci]--
		bt.clsSum[ci].add(dFalse)
		if bt.satCnt[ci] == 0 {
			contrib := bt.mixClause(bt.clsSum[ci])
			bt.clsContrib[ci] = contrib
			bt.dig.add(contrib)
		}
	}
	bt.assign[v] = cnf.Unassigned
}

// search explores the subtree where order[pos] = b; it reports whether a
// satisfying extension exists. It mirrors procedure Cache_Sat of
// Algorithm 1.
func (bt *backtracker) search(pos int, b bool) bool {
	if bt.aborted {
		return false
	}
	bt.stats.Nodes++
	if !b {
		// One decision per branched variable: the b=true branch of the same
		// variable at the same position is the other half of one decision,
		// not a second one.
		bt.stats.Decisions++
	}
	if bt.maxNodes > 0 && bt.stats.Nodes > bt.maxNodes {
		bt.aborted = true
		return false
	}
	if pos+1 > bt.stats.MaxDepth {
		bt.stats.MaxDepth = pos + 1
	}
	v := bt.order[pos]
	bt.assignVar(v, b)
	if bt.numNull > 0 {
		bt.unassignVar(v)
		return false
	}
	if bt.numSat == len(bt.f.Clauses) {
		// Every clause satisfied: SAT regardless of remaining variables.
		return true
	}
	var dig digest
	var key []byte
	if bt.useCache {
		dig = bt.dig
		if bt.verify {
			key = bt.residualKey()
		}
		hit, collisions := bt.table.lookup(dig, key)
		bt.stats.CacheCollisions += collisions
		if hit {
			bt.stats.CacheHits++
			bt.unassignVar(v)
			return false
		}
		bt.stats.CacheMisses++
	}
	if pos+1 == len(bt.order) {
		// All variables assigned, no null clause, but some clause open is
		// impossible (no unassigned literals remain), so this is SAT; the
		// numSat check above normally catches it.
		return true
	}
	if bt.search(pos+1, false) || bt.search(pos+1, true) {
		return true
	}
	if bt.useCache && !bt.aborted {
		bt.table.insert(dig, key)
	}
	bt.unassignVar(v)
	return false
}

// residualKey builds the exact byte key of the current residual
// sub-formula for VerifyKeys mode: the canonical varint encoding shared
// with cnf.Formula.AppendResidualKey, with satisfied clauses skipped in
// O(1) via satCnt. Allocated fresh per node on purpose — this mode is the
// measured baseline the digest replaces.
func (bt *backtracker) residualKey() []byte {
	buf := make([]byte, 0, 256)
	for ci, c := range bt.f.Clauses {
		if bt.satCnt[ci] > 0 {
			continue
		}
		buf = c.AppendResidualLits(buf, bt.assign)
	}
	return buf
}
