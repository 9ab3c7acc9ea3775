package atpg

// This file is the engine's one formula encoder. It writes the ATPG-SAT
// instance of Section 2 (Figure 3: a good copy of C_ψ^sub, a faulty copy
// of C_ψ^fo, one XOR per observable output) straight from the parent
// circuit's node IDs into a reusable cnf.Encoder. A one-fault formula
// numbers variables and orders clauses exactly as Miter.Encode does for
// the Figure 3 circuit; Miter stays the reference construction, and the
// encoder builds no circuit and names no node. A region group's formula
// keeps the same good copy but shares one faulty copy of the region
// head's fanout cone among its members, each member adding only its
// fanout-free chain up to the head (InF-ATPG's fanout-free regions,
// PAPERS.md), so a group costs about as much as one fault.

import (
	"fmt"
	"math/bits"
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
	head  []int32 // regionHeads(c), shared read-only by a run's encoders
	isOut []bool  // per node: a primary output of c
	enc   cnf.Encoder

	// goodVar[id] is node id's good-copy variable while goodAt[id] ==
	// goodStamp; faultyLit[id] its faulty copy's literal while mark[id]
	// holds the stamp of the faulty part being written (a region head
	// feeding its shared cone reads as its negated good copy). mark also
	// serves the fanout walks.
	goodVar          []int32
	faultyLit        []cnf.Lit
	goodAt, mark     []uint32
	goodStamp, stamp uint32

	nodes      []int        // the heads' cones and the members' chains, concatenated, each ascending
	heads      []headSpan   // per distinct region head of the members
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

	// A worker's encoder is paired with the worker's instance (pair), and
	// then returns each formula without its good copy: the instance holds
	// the good copy of the good set held, heldClauses clauses long, as its
	// base. When a formula's good set differs, base is its good copy,
	// which the instance must set as its new base before loading the
	// formula; otherwise base is nil. An unpaired encoder always returns
	// the full formula.
	paired      bool
	held        []int
	heldClauses int
	base        *cnf.Formula
	baseF       cnf.Formula
}

// headSpan is one region head h of the members. Its fanout cone, h
// first, is nodes[coneLo:coneHi]; outBelow reports a primary output in
// the cone past h, live that an observable member has h for its head.
// A gated formula's shared faulty copy of the cone past h has its XOR
// variables in [xorLo, xorHi).
type headSpan struct {
	h              int
	coneLo, coneHi int
	outBelow, live bool
	xorLo, xorHi   int
}

// memberSpan locates one member's part of the formula: its chain, the
// single-reader path from the fault net up to its head (head excluded),
// is nodes[chainLo:chainHi]; heads[head] is its head; its own XOR
// variables are [xorLo, xorHi), and exit is its helper variable into
// the head's shared cone (-1 when it has none).
type memberSpan struct {
	chainLo, chainHi int
	head             int
	xorLo, xorHi     int
	exit             int
}

// newFormulaEncoder returns an encoder for c; head is regionHeads(c),
// computed once per run and shared by the run's encoders.
func newFormulaEncoder(c *logic.Circuit, head []int32) *formulaEncoder {
	n := len(c.Nodes)
	fe := &formulaEncoder{
		c:         c,
		head:      head,
		isOut:     make([]bool, n),
		goodVar:   make([]int32, n),
		faultyLit: make([]cnf.Lit, n),
		goodAt:    make([]uint32, n),
		mark:      make([]uint32, n),
	}
	for _, o := range c.Outputs {
		fe.isOut[o] = true
	}
	return fe
}

// pair pairs the encoder with a fresh instance, which holds no base yet.
func (fe *formulaEncoder) pair() {
	fe.paired, fe.held, fe.heldClauses = true, fe.held[:0], 0
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
// next encode.
//
// A member's fanout cone is its chain — the nets from the fault net up
// to its region head h, each read by the next alone — followed by h's
// own fanout cone. Both shapes start with the good copies of the fanin
// of the observable members' fanout cones, in ascending node ID.
//
// Ungated (one member, TestFault's one-shot solve) the rest is
// Miter.Encode's, clause for clause: the faulty cone in ascending ID
// (the fault net a constant), one XOR per observable output in
// ascending output ID, the observation clause (some XOR is 1) and the
// activation unit (the good fault net carries the complement of the
// stuck value).
//
// Gated (a region group on the incremental core) the members share
// their head's cone. A fault leaves its region only through h, so past
// h the faulty circuit is either the good one (faulty h = good h) or
// the good one with h flipped. Per live head h with an output past it
// the formula has one faulty copy of the cone past h, fed by ¬good(h),
// and one XOR per output in it; per observable member k its faulty
// chain up to h in ascending ID, one XOR per output on it (h included),
// and a helper e_k with e_k → faulty h ≠ good h and e_k → some XOR past
// h. Each observable member k gets a selector s_k, numbered after every
// circuit variable, and in member order the clauses
//
//	¬s_k ∨ activation_k
//	¬s_k ∨ xor_k,1 ∨ … ∨ e_k
//
// so solving under assumptions (s_k, ¬s_j for the others) is solving
// member k's own instance, and every learned clause stays valid for
// every member.
//
// The good copy's clauses come first in either shape. A paired encoder
// returns the formula without them: the full formula is its instance's
// base followed by the returned part, the base being the good copy of
// the same good set and so the same clauses.
func (fe *formulaEncoder) encode(members []Fault, gated bool) (*cnf.Formula, error) {
	c := fe.c
	fe.nodes, fe.heads, fe.spans = fe.nodes[:0], fe.heads[:0], fe.spans[:0]
	fe.selectors, fe.unobservable = fe.selectors[:0], fe.unobservable[:0]
	observed := false
	for _, f := range members {
		if f.Net < 0 || f.Net >= len(c.Nodes) {
			return nil, fmt.Errorf("atpg: fault net %d out of range", f.Net)
		}
		sp := memberSpan{head: fe.headOf(f.Net), exit: -1}
		hd := &fe.heads[sp.head]
		observable := hd.outBelow || fe.isOut[hd.h]
		sp.chainLo = len(fe.nodes)
		for id := f.Net; id != hd.h; id = c.Nodes[id].Fanout[0] {
			fe.nodes = append(fe.nodes, id)
			observable = observable || fe.isOut[id]
		}
		sp.chainHi = len(fe.nodes)
		hd.live = hd.live || observable
		observed = observed || observable
		fe.spans = append(fe.spans, sp)
		fe.selectors = append(fe.selectors, -1)
		fe.unobservable = append(fe.unobservable, !observable)
	}
	if !observed {
		return nil, nil
	}

	fe.enc.Reset()
	fe.stack = fe.stack[:0]
	for k, sp := range fe.spans {
		if !fe.unobservable[k] {
			fe.stack = append(fe.stack, fe.nodes[sp.chainLo:sp.chainHi]...)
		}
	}
	for _, hd := range fe.heads {
		if hd.live {
			fe.stack = append(fe.stack, fe.nodes[hd.coneLo:hd.coneHi]...)
		}
	}
	fe.ids = fe.reach(fe.ids[:0], fe.goodAt, bump(&fe.goodStamp, fe.goodAt), false)
	// A good set is never empty, so a fresh pairing's empty held set
	// matches none.
	held := fe.paired && slices.Equal(fe.ids, fe.held)
	for v, id := range fe.ids {
		fe.goodVar[id] = int32(v)
		if held {
			continue
		}
		if err := fe.node(id, v, 0); err != nil {
			return nil, err
		}
	}
	n := len(fe.ids)
	good := fe.enc.NumClauses()
	if gated {
		for i := range fe.heads {
			hd := &fe.heads[i]
			if !hd.live || !hd.outBelow {
				continue
			}
			in := bump(&fe.stamp, fe.mark)
			fe.mark[hd.h], fe.faultyLit[hd.h] = in, fe.goodLit(hd.h).Not()
			below := fe.nodes[hd.coneLo+1 : hd.coneHi]
			var err error
			if n, err = fe.faultyPart(below, n, in, -1, false); err != nil {
				return nil, err
			}
			hd.xorLo = n
			n = fe.xors(below, n)
			hd.xorHi = n
		}
	}
	for k, f := range members {
		if fe.unobservable[k] {
			continue
		}
		sp := &fe.spans[k]
		hd := &fe.heads[sp.head]
		chain, cone := fe.nodes[sp.chainLo:sp.chainHi], fe.nodes[hd.coneLo:hd.coneHi]
		if gated {
			cone = cone[:1] // h; the shared copy carries the cone past it
		}
		in := bump(&fe.stamp, fe.mark)
		var err error
		if n, err = fe.faultyPart(chain, n, in, f.Net, f.StuckAt); err != nil {
			return nil, err
		}
		if n, err = fe.faultyPart(cone, n, in, f.Net, f.StuckAt); err != nil {
			return nil, err
		}
		sp.xorLo = n
		n = fe.xors(cone, fe.xors(chain, n))
		sp.xorHi = n
		if hd.xorHi > hd.xorLo {
			sp.exit = n
			e, fh, gh := cnf.NewLit(n, true), fe.faultyLit[hd.h], fe.goodLit(hd.h)
			fe.enc.Clause(e, fh, gh)
			fe.enc.Clause(e, fh.Not(), gh.Not())
			fe.lits = append(fe.lits[:0], e)
			for x := hd.xorLo; x < hd.xorHi; x++ {
				fe.lits = append(fe.lits, cnf.NewLit(x, false))
			}
			fe.enc.Clause(fe.lits...)
			n++
		}
	}

	for k, f := range members {
		if fe.unobservable[k] {
			continue
		}
		sp := &fe.spans[k]
		act := cnf.NewLit(int(fe.goodVar[f.Net]), f.StuckAt)
		fe.lits = fe.lits[:0]
		if gated {
			fe.selectors[k] = n
			fe.lits = append(fe.lits, cnf.NewLit(n, true))
			fe.enc.Clause(fe.lits[0], act)
			n++
		}
		for x := sp.xorLo; x < sp.xorHi; x++ {
			fe.lits = append(fe.lits, cnf.NewLit(x, false))
		}
		if sp.exit >= 0 {
			fe.lits = append(fe.lits, cnf.NewLit(sp.exit, false))
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
	f := fe.enc.Finish(n)
	fe.base = nil
	if !fe.paired || held {
		return f, nil
	}
	fe.held, fe.heldClauses = append(fe.held[:0], fe.ids...), good
	fe.baseF = cnf.Formula{NumVars: len(fe.ids), Clauses: f.Clauses[:good]}
	fe.base = &fe.baseF
	f.Clauses = f.Clauses[good:] // f is the encoder's own until the next encode
	return f, nil
}

// headOf returns the index in fe.heads of net's region head, walking the
// head's fanout cone into fe.nodes the first time the head is seen.
func (fe *formulaEncoder) headOf(net int) int {
	h := int(fe.head[net])
	for k := range fe.heads {
		if fe.heads[k].h == h {
			return k
		}
	}
	hd := headSpan{h: h, coneLo: len(fe.nodes)}
	fe.stack = append(fe.stack[:0], h)
	fe.nodes = fe.reach(fe.nodes, fe.mark, bump(&fe.stamp, fe.mark), true)
	hd.coneHi = len(fe.nodes)
	hd.outBelow = slices.ContainsFunc(fe.nodes[hd.coneLo+1:], func(id int) bool { return fe.isOut[id] })
	fe.heads = append(fe.heads, hd)
	return len(fe.heads) - 1
}

// goodLit is node id's good-copy literal.
func (fe *formulaEncoder) goodLit(id int) cnf.Lit { return cnf.NewLit(int(fe.goodVar[id]), false) }

// faultyPart numbers the faulty copies of ids from variable n on,
// stamping them in, and emits their clauses: the fault net (fault, or
// -1 for none) is the constant stuckAt, every other node its gate. It
// returns the next free variable.
func (fe *formulaEncoder) faultyPart(ids []int, n int, in uint32, fault int, stuckAt bool) (int, error) {
	for _, id := range ids {
		fe.faultyLit[id], fe.mark[id] = cnf.NewLit(n, false), in
		if id == fault {
			fe.enc.Clause(cnf.NewLit(n, !stuckAt))
		} else if err := fe.node(id, n, in); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// xors emits, from variable n on, one XOR of the good and faulty copies
// per primary output among ids, and returns the next free variable.
func (fe *formulaEncoder) xors(ids []int, n int) int {
	for _, id := range ids {
		if fe.isOut[id] {
			fe.lits = append(fe.lits[:0], fe.goodLit(id), fe.faultyLit[id])
			_ = fe.enc.Gate(logic.Xor, n, fe.lits) // a 2-input XOR always encodes
			n++
		}
	}
	return n
}

// reach walks from the nodes on fe.stack along fanout (or fanin) edges,
// marking every node it reaches with stamp, and appends the reached
// nodes to dst in ascending ID. When the k reached nodes span fewer IDs
// than k times k's bit length (about k·log2 k), sweeping the span's marks
// for them costs less than sorting them.
func (fe *formulaEncoder) reach(dst []int, marks []uint32, stamp uint32, fanout bool) []int {
	start := len(dst)
	lo, hi := len(fe.c.Nodes), -1
	for len(fe.stack) > 0 {
		id := fe.stack[len(fe.stack)-1]
		fe.stack = fe.stack[:len(fe.stack)-1]
		if marks[id] == stamp {
			continue
		}
		marks[id] = stamp
		dst = append(dst, id)
		lo, hi = min(lo, id), max(hi, id)
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
	if k := len(dst) - start; hi-lo < k*bits.Len(uint(k)) {
		dst = dst[:start]
		for id := lo; id <= hi; id++ {
			if marks[id] == stamp {
				dst = append(dst, id)
			}
		}
		return dst
	}
	slices.Sort(dst[start:])
	return dst
}

// node emits node id's clauses as variable v: a constant's unit clause,
// or the gate's clauses over each fanin's faulty copy when the fanin is
// stamped in, its good copy otherwise (in 0: good copies).
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
		l := fe.goodLit(fi)
		if in != 0 && fe.mark[fi] == in {
			l = fe.faultyLit[fi]
		}
		if n.Negated(i) {
			l = l.Not()
		}
		fe.lits = append(fe.lits, l)
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
