package cnf

import (
	"fmt"

	"atpgeasy/internal/logic"
)

// maxXorFanin bounds the fanin of XOR/XNOR gates we encode directly; a
// k-input parity gate needs 2^k clauses when the formula must keep one
// variable per net. Technology decomposition (package decomp) keeps real
// netlists well under this.
const maxXorFanin = 8

// clauseWriter accumulates clauses in one shared literal slab so an
// encoder can be reused across many formulas without allocating a slice
// per clause. Clause boundaries are tracked as slab offsets and only
// materialized into []Clause views at the end (the slab may reallocate
// while clauses are still being appended, so views cannot be taken
// earlier).
type clauseWriter struct {
	slab []Lit
	ends []int32 // slab offset one past each clause's last literal
}

func (w *clauseWriter) reset() {
	w.slab = w.slab[:0]
	w.ends = w.ends[:0]
}

// add appends one complete clause.
func (w *clauseWriter) add(lits ...Lit) {
	w.slab = append(w.slab, lits...)
	w.ends = append(w.ends, int32(len(w.slab)))
}

// push/end build a clause literal by literal (for the long gate clauses).
func (w *clauseWriter) push(l Lit) { w.slab = append(w.slab, l) }
func (w *clauseWriter) end()       { w.ends = append(w.ends, int32(len(w.slab))) }

// clauses appends views over the slab to dst, one per collected clause.
// The views use full slice expressions so a later append to one clause
// copies instead of clobbering its neighbor.
func (w *clauseWriter) clauses(dst []Clause) []Clause {
	start := int32(0)
	for _, e := range w.ends {
		dst = append(dst, Clause(w.slab[start:e:e]))
		start = e
	}
	return dst
}

// emitGate appends the Figure 2 consistency clauses for one gate. See
// GateClauses for the clause sets.
func (w *clauseWriter) emitGate(t logic.GateType, out int, in []Lit) error {
	z := NewLit(out, false)
	nz := z.Not()
	switch t {
	case logic.Buf, logic.Not:
		l := in[0]
		if t == logic.Not {
			l = l.Not()
		}
		w.add(nz, l)
		w.add(z, l.Not())
	case logic.And, logic.Nand:
		if t == logic.Nand {
			z, nz = nz, z
		}
		for _, l := range in {
			w.add(nz, l)
		}
		for _, l := range in {
			w.push(l.Not())
		}
		w.push(z)
		w.end()
	case logic.Or, logic.Nor:
		if t == logic.Nor {
			z, nz = nz, z
		}
		for _, l := range in {
			w.add(z, l.Not())
		}
		for _, l := range in {
			w.push(l)
		}
		w.push(nz)
		w.end()
	case logic.Xor, logic.Xnor:
		k := len(in)
		if k > maxXorFanin {
			return fmt.Errorf("cnf: %d-input %s gate exceeds direct-encoding limit %d (run decomp first)", k, t, maxXorFanin)
		}
		want := t == logic.Xor
		// For every input combination, the row's clause forbids the wrong
		// output value: if parity(row) == want-parity the output must be 1.
		for row := 0; row < 1<<uint(k); row++ {
			parity := false
			for i := 0; i < k; i++ {
				bit := row>>uint(i)&1 == 1
				if bit {
					parity = !parity
				}
				// Literal that is false exactly on this row.
				lit := in[i]
				if bit {
					lit = lit.Not()
				}
				w.push(lit)
			}
			if parity == want {
				w.push(z)
			} else {
				w.push(nz)
			}
			w.end()
		}
	default:
		return fmt.Errorf("cnf: no clause encoding for %s", t)
	}
	return nil
}

// GateClauses returns the consistency clauses for one gate, following
// Figure 2 of the paper. The gate's output variable is out; in[i] is the
// literal feeding gate input i (already carrying any input inversion).
//
//	AND z:  (~z + l_i) for each input i, plus (z + ~l_1 + ... + ~l_k).
//	OR  z:  (z + ~l_i) for each i, plus (~z + l_1 + ... + l_k).
//
// NAND/NOR are AND/OR with the output literal complemented; BUF/NOT are the
// two-clause equivalence; XOR/XNOR enumerate the parity-violating rows.
func GateClauses(t logic.GateType, out int, in []Lit) ([]Clause, error) {
	var w clauseWriter
	if err := w.emitGate(t, out, in); err != nil {
		return nil, err
	}
	return w.clauses(nil), nil
}

// Encoder builds CIRCUIT-SAT formulas with reusable buffers, amortizing
// the per-clause and per-gate allocations of FromCircuit across the
// thousands of fault instances an ATPG worker encodes. The zero value is
// ready to use. Besides Encode, which encodes a whole circuit, it takes
// clauses one gate or clause at a time: Reset, then Gate and Clause in
// formula order, then Finish. An Encoder must not be used concurrently,
// and the *Formula returned by Encode or Finish (including its clauses
// and names) aliases the encoder's buffers: it is valid only until the
// next Reset or Encode call; callers needing to keep it must Clone it.
type Encoder struct {
	w       clauseWriter
	f       Formula
	clauses []Clause
	names   []string
	in      []Lit
}

// Reset starts a new formula, discarding the clauses of the last one.
func (e *Encoder) Reset() { e.w.reset() }

// Gate appends the Figure 2 consistency clauses of one gate with output
// variable out and input literals in (see GateClauses).
func (e *Encoder) Gate(t logic.GateType, out int, in []Lit) error {
	return e.w.emitGate(t, out, in)
}

// Clause appends one clause.
func (e *Encoder) Clause(lits ...Lit) { e.w.add(lits...) }

// NumClauses returns the number of clauses appended since Reset.
func (e *Encoder) NumClauses() int { return len(e.w.ends) }

// Finish returns the formula over variables 0..numVars-1 made of the
// clauses appended since Reset, in order, without variable names.
func (e *Encoder) Finish(numVars int) *Formula {
	e.clauses = e.w.clauses(e.clauses[:0])
	e.f = Formula{NumVars: numVars, Clauses: e.clauses}
	return &e.f
}

// Encode is FromCircuit with buffer reuse; see the Encoder doc for the
// result's lifetime.
func (e *Encoder) Encode(c *logic.Circuit, forced map[int]bool) (*Formula, error) {
	e.Reset()
	e.names = e.names[:0]
	for i := range c.Nodes {
		e.names = append(e.names, c.Nodes[i].Name)
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if _, isForced := forced[id]; isForced {
			continue // the forced value replaces the gate function
		}
		switch n.Type {
		case logic.Input:
			// free variable, no clauses
		case logic.Const0, logic.Const1:
			e.Clause(NewLit(id, n.Type == logic.Const0))
		default:
			e.in = e.in[:0]
			for i, fi := range n.Fanin {
				e.in = append(e.in, NewLit(fi, n.Negated(i)))
			}
			if err := e.Gate(n.Type, id, e.in); err != nil {
				return nil, fmt.Errorf("gate %q: %w", n.Name, err)
			}
		}
	}
	for id, v := range forced {
		e.Clause(NewLit(id, !v))
	}
	if len(c.Outputs) > 0 {
		for _, o := range c.Outputs {
			e.w.push(NewLit(o, false))
		}
		e.w.end()
	}
	f := e.Finish(c.NumNodes())
	f.VarNames = e.names
	return f, nil
}

// FromCircuit builds the CIRCUIT-SAT formula f(C) of Section 2: one
// variable per net (variable index = node ID), Figure 2 clauses for each
// gate, unit clauses for constant drivers, and one clause asserting that at
// least one primary output is 1.
//
// ForcedNets optionally asserts nets to fixed values (unit clauses) — used
// by the ATPG encoding to activate the fault site. Passing nil forces
// nothing.
func FromCircuit(c *logic.Circuit, forced map[int]bool) (*Formula, error) {
	// A throwaway encoder: the formula owns the buffers outright.
	return new(Encoder).Encode(c, forced)
}

// FromCircuitConsistency builds only the gate-consistency clauses (no
// output-asserting clause): the characteristic function of the circuit's
// legal net-value combinations. Useful for counting distinct consistent
// sub-formulas and for equivalence checking harnesses.
func FromCircuitConsistency(c *logic.Circuit) (*Formula, error) {
	f, err := FromCircuit(c, nil)
	if err != nil {
		return nil, err
	}
	if len(c.Outputs) > 0 {
		f.Clauses = f.Clauses[:len(f.Clauses)-1]
	}
	return f, nil
}
