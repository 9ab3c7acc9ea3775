package atpg

// This file is the engine's one formula encoder. It writes the ATPG-SAT
// instance of Section 2 (Figure 3: a good copy of C_ψ^sub, a faulty copy
// of C_ψ^fo, one XOR per observable output) straight from the parent
// circuit's node IDs into a reusable cnf.Encoder, numbering variables
// and ordering clauses exactly as Miter.Encode does for the Figure 3
// circuit. Miter stays the reference construction; the encoder builds
// no circuit and names no node.

import (
	"fmt"
	"slices"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/logic"
)

// formulaEncoder is one worker's encoder for one circuit. Its node
// arrays are sized to the circuit and reused across formulas: stamps
// mark the entries of the current formula, so nothing is cleared
// between formulas.
type formulaEncoder struct {
	c     *logic.Circuit
	isOut []bool // per node: a primary output of c
	enc   cnf.Encoder

	// goodVar[id] is node id's good-copy variable while goodAt[id] ==
	// goodStamp; faultyVar[id] its faulty copy's while mark[id] holds the
	// member's cone stamp. mark also serves the fanout walks.
	goodVar, faultyVar []int32
	goodAt, mark       []uint32
	goodStamp, stamp   uint32

	cones      []int        // the members' observable fanout cones, concatenated, each ascending
	spans      []memberSpan // per member
	ids, stack []int
	lits       []cnf.Lit

	// Of the last formula: the branching priority (good-copy variables
	// of the primary inputs in it, in input order), each member's
	// selector variable (-1 when unobservable or ungated), and which
	// members are unobservable (no primary output in their fanout cone;
	// they take no part in the formula).
	priority     []int
	selectors    []int
	unobservable []bool
}

// memberSpan locates one member's part of the formula: its cone ends at
// cones[coneEnd], its XOR variables are [xorLo, xorHi).
type memberSpan struct{ coneEnd, xorLo, xorHi int }

func newFormulaEncoder(c *logic.Circuit) *formulaEncoder {
	n := len(c.Nodes)
	fe := &formulaEncoder{
		c:         c,
		isOut:     make([]bool, n),
		goodVar:   make([]int32, n),
		faultyVar: make([]int32, n),
		goodAt:    make([]uint32, n),
		mark:      make([]uint32, n),
	}
	for _, o := range c.Outputs {
		fe.isOut[o] = true
	}
	return fe
}

// bump advances a stamp past 0, clearing its marks on wrap-around.
func bump(stamp *uint32, marks []uint32) uint32 {
	*stamp++
	if *stamp == 0 {
		clear(marks)
		*stamp = 1
	}
	return *stamp
}

// encode returns the ATPG-SAT formula of the members, or nil when none
// is observable. The formula aliases the encoder's buffers until the
// next encode. Its variables and clauses come in this order: good
// copies of the fanin of the observable members' fanout cones, in
// ascending node ID; for each observable member its faulty cone in
// ascending ID (the fault net a constant), then one XOR per observable
// output in ascending output ID; then activation and observation.
// Ungated (one member, TestFault's one-shot solve) that is Miter.Encode's
// observation clause (some XOR is 1) and activation unit (the good
// fault net carries the complement of the stuck value). Gated (a region
// group on the incremental core) each observable member k gets a
// selector s_k, numbered after every circuit variable, and in member
// order the clauses
//
//	¬s_k ∨ activation_k
//	¬s_k ∨ xor_k,1 ∨ …
//
// so solving under assumptions (s_k, ¬s_j for the others) is solving
// member k's own instance, and every learned clause stays valid for
// every member.
func (fe *formulaEncoder) encode(members []Fault, gated bool) (*cnf.Formula, error) {
	c := fe.c
	fe.cones, fe.spans = fe.cones[:0], fe.spans[:0]
	fe.selectors, fe.unobservable = fe.selectors[:0], fe.unobservable[:0]
	observed := false
	for _, f := range members {
		if f.Net < 0 || f.Net >= len(c.Nodes) {
			return nil, fmt.Errorf("atpg: fault net %d out of range", f.Net)
		}
		start := len(fe.cones)
		fe.stack = append(fe.stack[:0], f.Net)
		fe.cones = fe.reach(fe.cones, fe.mark, bump(&fe.stamp, fe.mark), true)
		observable := slices.ContainsFunc(fe.cones[start:], func(id int) bool { return fe.isOut[id] })
		if !observable {
			fe.cones = fe.cones[:start]
		}
		observed = observed || observable
		fe.spans = append(fe.spans, memberSpan{coneEnd: len(fe.cones)})
		fe.selectors = append(fe.selectors, -1)
		fe.unobservable = append(fe.unobservable, !observable)
	}
	if !observed {
		return nil, nil
	}

	fe.enc.Reset()
	fe.stack = append(fe.stack[:0], fe.cones...)
	fe.ids = fe.reach(fe.ids[:0], fe.goodAt, bump(&fe.goodStamp, fe.goodAt), false)
	for v, id := range fe.ids {
		fe.goodVar[id] = int32(v)
		if err := fe.node(id, v, 0); err != nil {
			return nil, err
		}
	}
	n, start := len(fe.ids), 0
	for k, f := range members {
		cone := fe.cones[start:fe.spans[k].coneEnd]
		start = fe.spans[k].coneEnd
		if fe.unobservable[k] {
			continue
		}
		in := bump(&fe.stamp, fe.mark)
		for _, id := range cone {
			fe.faultyVar[id], fe.mark[id] = int32(n), in
			if id == f.Net {
				fe.enc.Clause(cnf.NewLit(n, !f.StuckAt))
			} else if err := fe.node(id, n, in); err != nil {
				return nil, err
			}
			n++
		}
		fe.spans[k].xorLo = n
		for _, id := range cone {
			if fe.isOut[id] {
				fe.lits = append(fe.lits[:0], cnf.NewLit(int(fe.goodVar[id]), false), cnf.NewLit(int(fe.faultyVar[id]), false))
				_ = fe.enc.Gate(logic.Xor, n, fe.lits) // a 2-input XOR always encodes
				n++
			}
		}
		fe.spans[k].xorHi = n
	}

	for k, f := range members {
		if fe.unobservable[k] {
			continue
		}
		act := cnf.NewLit(int(fe.goodVar[f.Net]), f.StuckAt)
		fe.lits = fe.lits[:0]
		if gated {
			fe.selectors[k] = n
			fe.lits = append(fe.lits, cnf.NewLit(n, true))
			fe.enc.Clause(fe.lits[0], act)
			n++
		}
		for x := fe.spans[k].xorLo; x < fe.spans[k].xorHi; x++ {
			fe.lits = append(fe.lits, cnf.NewLit(x, false))
		}
		fe.enc.Clause(fe.lits...)
		if !gated {
			fe.enc.Clause(act)
		}
	}
	fe.priority = fe.priority[:0]
	for _, in := range c.Inputs {
		if fe.goodAt[in] == fe.goodStamp {
			fe.priority = append(fe.priority, int(fe.goodVar[in]))
		}
	}
	return fe.enc.Finish(n), nil
}

// reach walks from the nodes on fe.stack along fanout (or fanin) edges,
// marking every node it reaches with stamp, and appends the reached
// nodes to dst in ascending ID.
func (fe *formulaEncoder) reach(dst []int, marks []uint32, stamp uint32, fanout bool) []int {
	start := len(dst)
	for len(fe.stack) > 0 {
		id := fe.stack[len(fe.stack)-1]
		fe.stack = fe.stack[:len(fe.stack)-1]
		if marks[id] == stamp {
			continue
		}
		marks[id] = stamp
		dst = append(dst, id)
		edges := fe.c.Nodes[id].Fanin
		if fanout {
			edges = fe.c.Nodes[id].Fanout
		}
		for _, e := range edges {
			if marks[e] != stamp {
				fe.stack = append(fe.stack, e)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// node emits node id's clauses as variable v: a constant's unit clause,
// or the gate's clauses over each fanin's faulty copy when the fanin is
// in the cone stamped in, its good copy otherwise (in 0: good copies).
func (fe *formulaEncoder) node(id, v int, in uint32) error {
	n := &fe.c.Nodes[id]
	switch n.Type {
	case logic.Input:
		return nil
	case logic.Const0, logic.Const1:
		fe.enc.Clause(cnf.NewLit(v, n.Type == logic.Const0))
		return nil
	}
	fe.lits = fe.lits[:0]
	for i, fi := range n.Fanin {
		w := fe.goodVar[fi]
		if in != 0 && fe.mark[fi] == in {
			w = fe.faultyVar[fi]
		}
		fe.lits = append(fe.lits, cnf.NewLit(int(w), n.Negated(i)))
	}
	if err := fe.enc.Gate(n.Type, v, fe.lits); err != nil {
		return fmt.Errorf("gate %q: %w", n.Name, err)
	}
	return nil
}

// assumptions appends member k's assumption literals for the last gated
// formula to buf: its own selector asserted, every other observable
// member's negated, so UNSAT means exactly "member k is untestable".
func (fe *formulaEncoder) assumptions(k int, buf []cnf.Lit) []cnf.Lit {
	buf = append(buf[:0], cnf.NewLit(fe.selectors[k], false))
	for j, s := range fe.selectors {
		if j != k && s >= 0 {
			buf = append(buf, cnf.NewLit(s, true))
		}
	}
	return buf
}

// extract converts a model of the last formula into a test vector over
// the circuit's primary inputs. Inputs outside the good copy are
// don't-cares returned as false; on a gated formula, lex-first
// branching over the priority gives the inputs irrelevant to a member
// the same value, so its vector equals the one its own formula yields.
func (fe *formulaEncoder) extract(model []bool) []bool {
	vec := make([]bool, len(fe.c.Inputs))
	for i, in := range fe.c.Inputs {
		if fe.goodAt[in] == fe.goodStamp {
			vec[i] = model[fe.goodVar[in]]
		}
	}
	return vec
}
