// Package cnf implements conjunctive normal form Boolean formulas and the
// CIRCUIT-SAT encoding of Section 2 of "Why is ATPG Easy?".
//
// A CIRCUIT-SAT problem on a circuit C is posed as a SAT problem on the
// formula f(C), which has one variable for each signal net of C, a set of
// clauses for each gate (Figure 2 of the paper), and one clause asserting
// that at least one primary output is 1.
package cnf

import (
	"fmt"
	"slices"
	"strings"
)

// Lit is a literal: an instance of a variable or its complement. Variables
// are numbered from 0. The encoding is var*2 for the positive literal and
// var*2+1 for the negative literal, so Lit values order naturally by
// variable.
type Lit int

// NewLit returns the literal for variable v, complemented if neg.
func NewLit(v int, neg bool) Lit {
	if neg {
		return Lit(v*2 + 1)
	}
	return Lit(v * 2)
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l) >> 1 }

// IsNeg reports whether the literal is complemented.
func (l Lit) IsNeg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Sat reports whether the literal is satisfied when its variable has
// value v.
func (l Lit) Sat(v bool) bool { return v != l.IsNeg() }

// String renders the literal as x5 or ~x5.
func (l Lit) String() string {
	if l.IsNeg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Clause is a disjunction of literals.
type Clause []Lit

// Normalize sorts the literals in place and removes duplicates; it does
// not allocate. It reports whether the clause is a tautology (contains
// both a literal and its complement), in which case the clause contents
// are unspecified. Clauses of two and three literals, most of a circuit's
// gate clauses, are sorted by compare-and-swap and checked without a
// loop.
func (c Clause) Normalize() (Clause, bool) {
	switch len(c) {
	case 0, 1:
		return c, false
	case 2:
		if c[1] < c[0] {
			c[0], c[1] = c[1], c[0]
		}
		return normalizeSorted2(c)
	case 3:
		if c[1] < c[0] {
			c[0], c[1] = c[1], c[0]
		}
		if c[2] < c[1] {
			c[1], c[2] = c[2], c[1]
		}
		if c[1] < c[0] {
			c[0], c[1] = c[1], c[0]
		}
		// A complement pair is adjacent once sorted: 2v, 2v+1.
		a, b, d := c[0], c[1], c[2]
		switch {
		case a.Not() == b || b.Not() == d:
			return c, true
		case a == b:
			c[1] = d
			return normalizeSorted2(c[:2])
		case b == d:
			return c[:2], false
		}
		return c, false
	}
	slices.Sort(c)
	out := c[:0]
	for i, l := range c {
		if i > 0 && l == c[i-1] {
			continue
		}
		if i > 0 && l == c[i-1].Not() {
			return c, true
		}
		out = append(out, l)
	}
	return out, false
}

// normalizeSorted2 normalises a sorted clause of two literals.
func normalizeSorted2(c Clause) (Clause, bool) {
	switch {
	case c[0] == c[1]:
		return c[:1], false
	case c[0].Not() == c[1]:
		return c, true
	}
	return c, false
}

// String renders the clause in the paper's style, e.g. "(x0 + ~x3)".
func (c Clause) String() string {
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

// Formula is a CNF formula: a set of clauses over variables 0..NumVars-1.
// VarNames optionally gives a human-readable name per variable (the net
// names when the formula encodes a circuit).
type Formula struct {
	NumVars  int
	Clauses  []Clause
	VarNames []string
}

// NewFormula returns an empty formula over n variables.
func NewFormula(n int) *Formula {
	return &Formula{NumVars: n}
}

// AddClause appends a clause. Literals referencing variables ≥ NumVars
// grow the variable count.
func (f *Formula) AddClause(lits ...Lit) {
	for _, l := range lits {
		if l.Var() >= f.NumVars {
			f.NumVars = l.Var() + 1
		}
		if l < 0 {
			panic(fmt.Sprintf("cnf: negative literal %d", l))
		}
	}
	f.Clauses = append(f.Clauses, Clause(lits))
}

// NumClauses returns the number of clauses.
func (f *Formula) NumClauses() int { return len(f.Clauses) }

// NumLiterals returns the total literal count over all clauses.
func (f *Formula) NumLiterals() int {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	return n
}

// VarName returns the name of variable v, falling back to "x<v>".
func (f *Formula) VarName(v int) string {
	if v < len(f.VarNames) && f.VarNames[v] != "" {
		return f.VarNames[v]
	}
	return fmt.Sprintf("x%d", v)
}

// Eval evaluates the formula under a complete assignment (one value per
// variable).
func (f *Formula) Eval(assign []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if l.Sat(assign[l.Var()]) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// Value is a three-valued assignment entry.
type Value int8

// The three assignment states of a variable during search.
const (
	Unassigned Value = iota
	False
	True
)

// ValueOf converts a bool to a Value.
func ValueOf(b bool) Value {
	if b {
		return True
	}
	return False
}

// ClauseState classifies a clause under a partial assignment.
type ClauseState int8

// Clause states under a partial assignment: satisfied (some literal true),
// empty/null (all literals false — the paper's "null clause"), or open.
const (
	Open ClauseState = iota
	Satisfied
	Null
)

// StateUnder classifies clause c under the partial assignment.
func (c Clause) StateUnder(assign []Value) ClauseState {
	anyOpen := false
	for _, l := range c {
		switch assign[l.Var()] {
		case Unassigned:
			anyOpen = true
		case True:
			if !l.IsNeg() {
				return Satisfied
			}
		case False:
			if l.IsNeg() {
				return Satisfied
			}
		}
	}
	if anyOpen {
		return Open
	}
	return Null
}

// HasNullClause reports whether any clause is null under the partial
// assignment — i.e. the sub-formula is not a "consistent sub-formula" in
// the paper's sense.
func (f *Formula) HasNullClause(assign []Value) bool {
	for _, c := range f.Clauses {
		if c.StateUnder(assign) == Null {
			return true
		}
	}
	return false
}

// Residual returns the sub-formula obtained under the partial assignment:
// satisfied clauses are dropped and false literals removed from the rest.
// The paper caches sub-formulas "as sets of clauses"; AppendResidualKey
// provides the canonical cache key for this representation.
func (f *Formula) Residual(assign []Value) []Clause {
	var out []Clause
	for _, c := range f.Clauses {
		var reduced Clause
		sat := false
		for _, l := range c {
			switch assign[l.Var()] {
			case Unassigned:
				reduced = append(reduced, l)
			case True:
				if !l.IsNeg() {
					sat = true
				}
			case False:
				if l.IsNeg() {
					sat = true
				}
			}
			if sat {
				break
			}
		}
		if !sat {
			out = append(out, reduced)
		}
	}
	return out
}

// AppendUvarint appends x in LEB128 varint form. It is the literal
// encoding of the canonical residual key shared by AppendResidualKey,
// the sat package's exact cache keys and internal/core's DCSF counter.
func AppendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// AppendResidualLits appends the residual of clause c under the partial
// assignment: varint(lit+1) for each unassigned literal in clause order,
// terminated by a 0 byte (no literal encodes to 0, so the terminator is
// unambiguous). The caller is responsible for skipping satisfied clauses.
func (c Clause) AppendResidualLits(buf []byte, assign []Value) []byte {
	for _, l := range c {
		if assign[l.Var()] == Unassigned {
			buf = AppendUvarint(buf, uint64(l)+1)
		}
	}
	return append(buf, 0)
}

// satisfiedUnder reports whether some literal of c is true under the
// partial assignment.
func (c Clause) satisfiedUnder(assign []Value) bool {
	for _, l := range c {
		switch assign[l.Var()] {
		case True:
			if !l.IsNeg() {
				return true
			}
		case False:
			if l.IsNeg() {
				return true
			}
		}
	}
	return false
}

// AppendResidualKey appends the canonical byte key of the residual
// sub-formula under the partial assignment: the AppendResidualLits
// encoding of every non-satisfied clause, in formula order. Clause order
// and within-clause literal order are fixed by the formula, so for a given
// formula two assignments produce the same key iff they induce the same
// residual clause set — the paper's sub-formula identity (footnote 2:
// clause-set identity, not functional equivalence).
func (f *Formula) AppendResidualKey(buf []byte, assign []Value) []byte {
	for _, c := range f.Clauses {
		if c.satisfiedUnder(assign) {
			continue
		}
		buf = c.AppendResidualLits(buf, assign)
	}
	return buf
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	g := &Formula{NumVars: f.NumVars}
	g.Clauses = make([]Clause, len(f.Clauses))
	for i, c := range f.Clauses {
		g.Clauses[i] = append(Clause(nil), c...)
	}
	g.VarNames = append([]string(nil), f.VarNames...)
	return g
}

// String renders the whole formula in the paper's product-of-sums style.
func (f *Formula) String() string {
	parts := make([]string, len(f.Clauses))
	for i, c := range f.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, "")
}

// PrettyClause renders a clause using variable names, in the paper's
// notation: (b + ~f).
func (f *Formula) PrettyClause(c Clause) string {
	parts := make([]string, len(c))
	for i, l := range c {
		s := f.VarName(l.Var())
		if l.IsNeg() {
			s = "~" + s
		}
		parts[i] = s
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

// Stats summarizes formula shape for the Purdom–Brown average-time
// parameterization of Section 3.3: variable count v, clause count t, and
// average clause length p (the probability parameterization uses literal
// density p = avg length / v).
type Stats struct {
	Vars          int
	ClauseCount   int
	Literals      int
	AvgClauseLen  float64
	MaxClauseLen  int
	UnitClauses   int
	BinaryClauses int
}

// Stats computes summary statistics.
func (f *Formula) Stats() Stats {
	s := Stats{Vars: f.NumVars, ClauseCount: len(f.Clauses)}
	for _, c := range f.Clauses {
		s.Literals += len(c)
		if len(c) > s.MaxClauseLen {
			s.MaxClauseLen = len(c)
		}
		switch len(c) {
		case 1:
			s.UnitClauses++
		case 2:
			s.BinaryClauses++
		}
	}
	if len(f.Clauses) > 0 {
		s.AvgClauseLen = float64(s.Literals) / float64(len(f.Clauses))
	}
	return s
}
