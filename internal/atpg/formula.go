package atpg

// This file is the engine's one formula encoder. It writes the ATPG-SAT
// instance of Section 2 (Figure 3: a good copy of C_ψ^sub, a faulty copy
// of C_ψ^fo, one XOR per observable output) for the faults of one
// fanout-free region — InF-ATPG's unit of work (PAPERS.md) — straight
// from the parent circuit's node IDs into a reusable cnf.Encoder. The
// members share one faulty copy of the region head's fanout cone, each
// adding only its fanout-free chain up to the head, so a group costs
// about as much as one fault. The encoder builds no circuit and names no
// node; Miter is the reference construction, which TestFault solves and
// the tests check this encoder against.

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
	head  []int32 // regionTable.head, shared read-only by a run's encoders
	isOut []bool  // per node: a primary output of c
	enc   cnf.Encoder

	// goodVar[id] is node id's good-copy variable while goodAt[id] ==
	// goodStamp; faultyLit[id] its faulty copy's literal while mark[id]
	// holds the stamp of the faulty part being written (the region head
	// feeding its shared cone reads as its negated good copy). mark also
	// serves the fanout walks.
	goodVar          []int32
	faultyLit        []cnf.Lit
	goodAt, mark     []uint32
	goodStamp, stamp uint32

	nodes      []int        // the head's fanout cone, then the members' paths, each ascending
	spans      []memberSpan // per member
	ids, stack []int
	lits       []cnf.Lit

	// Of the last formula: the branching priority (good-copy variables
	// of the primary inputs in it, in input order), each member's
	// selector variable (-1 when unobservable), and which members are
	// unobservable (no primary output in their fanout cone; they take no
	// part in the formula).
	priority     []int
	selectors    []int
	unobservable []bool

	// The encoder is paired with its worker's instance (pair) and returns
	// each formula without its good copy: the instance holds the good copy
	// of the good set held, heldClauses clauses long, as its base. When a
	// formula's good set differs, base is its good copy, which the instance
	// must set as its new base before loading the formula; otherwise base
	// is nil. Either way the full formula is the base followed by the part.
	held        []int
	heldClauses int
	base        *cnf.Formula
	baseF       cnf.Formula
}

// memberSpan locates one member's part of the formula: its path, the
// single-reader chain from the fault net up to the region head and the
// head itself, is nodes[pathLo:pathHi]; its own XOR variables and its
// helper into the head's shared cone, when it has one, are [xorLo, xorHi).
type memberSpan struct {
	pathLo, pathHi int
	xorLo, xorHi   int
}

// newFormulaEncoder returns an encoder for c; head is the region table's
// per-net head, computed once per run and shared by the run's encoders.
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
	fe.held, fe.heldClauses = fe.held[:0], 0
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

// encode returns the ATPG-SAT formula of the members, faults of one
// fanout-free region, without its good copy (see base), or nil when none
// is observable. A member of another region is an error, as a net out of
// range is. The formula aliases the encoder's buffers until the next
// encode.
//
// A member's fanout cone is its chain — the nets from the fault net up
// to the region head h, each read by the next alone — followed by h's
// own fanout cone. A fault leaves the region only through h, so past h
// the faulty circuit is either the good one (faulty h = good h) or the
// good one with h flipped. The formula starts with the good copies of
// the fanin of the observable members' fanout cones, in ascending node
// ID. When an output lies past h, one faulty copy of the cone past h,
// fed by ¬good(h), follows with one XOR per output in it. Each
// observable member k then adds the faulty copy of its path, the chain
// and h, in ascending ID (the fault net a constant), one XOR per output
// on the path and, when the shared copy exists, a helper e_k with
// e_k → faulty h ≠ good h and e_k → some XOR past h. Last, each
// observable member k gets a selector s_k, numbered after every circuit
// variable, and in member order the clauses
//
//	¬s_k ∨ activation_k
//	¬s_k ∨ xor_k,1 ∨ … ∨ e_k
//
// so solving under assumptions (s_k, ¬s_j for the others) is solving
// member k's own instance, and every learned clause stays valid for
// every member. A one-member formula's good copy is Miter.Encode's,
// clause for clause and variable for variable.
func (fe *formulaEncoder) encode(members []Fault) (*cnf.Formula, error) {
	c := fe.c
	h := -1
	for _, f := range members {
		switch {
		case f.Net < 0 || f.Net >= len(c.Nodes):
			return nil, fmt.Errorf("atpg: fault net %d out of range", f.Net)
		case h < 0:
			h = int(fe.head[f.Net])
		case int(fe.head[f.Net]) != h:
			return nil, fmt.Errorf("atpg: fault %s is outside the region of %s", f.Name(c), c.Nodes[h].Name)
		}
	}
	fe.spans, fe.selectors, fe.unobservable = fe.spans[:0], fe.selectors[:0], fe.unobservable[:0]
	if h < 0 {
		return nil, nil
	}
	// h's fanout cone, h first (IDs are topological), then the paths.
	fe.stack = append(fe.stack[:0], h)
	fe.nodes = fe.reach(fe.nodes[:0], fe.mark, bump(&fe.stamp, fe.mark), true)
	coneHi := len(fe.nodes)
	outBelow := slices.ContainsFunc(fe.nodes[1:coneHi], func(id int) bool { return fe.isOut[id] })
	observed := false
	for _, f := range members {
		sp := memberSpan{pathLo: len(fe.nodes)}
		observable := outBelow
		for id := f.Net; ; id = c.Nodes[id].Fanout[0] {
			fe.nodes = append(fe.nodes, id)
			observable = observable || fe.isOut[id]
			if id == h {
				break
			}
		}
		sp.pathHi = len(fe.nodes)
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
			fe.stack = append(fe.stack, fe.nodes[sp.pathLo:sp.pathHi]...)
		}
	}
	fe.stack = append(fe.stack, fe.nodes[:coneHi]...)
	fe.ids = fe.reach(fe.ids[:0], fe.goodAt, bump(&fe.goodStamp, fe.goodAt), false)
	// A good set is never empty, so a fresh pairing's empty held set
	// matches none.
	held := slices.Equal(fe.ids, fe.held)
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
	xorLo, xorHi := n, n // the shared cone's XOR variables
	if outBelow {
		in := bump(&fe.stamp, fe.mark)
		fe.mark[h], fe.faultyLit[h] = in, fe.goodLit(h).Not()
		below := fe.nodes[1:coneHi]
		var err error
		if n, err = fe.faultyPart(below, n, in, -1, false); err != nil {
			return nil, err
		}
		xorLo = n
		n = fe.xors(below, n)
		xorHi = n
	}
	for k, f := range members {
		if fe.unobservable[k] {
			continue
		}
		sp := &fe.spans[k]
		path := fe.nodes[sp.pathLo:sp.pathHi]
		in := bump(&fe.stamp, fe.mark)
		var err error
		if n, err = fe.faultyPart(path, n, in, f.Net, f.StuckAt); err != nil {
			return nil, err
		}
		sp.xorLo = n
		n = fe.xors(path, n)
		if outBelow {
			e, fh, gh := cnf.NewLit(n, true), fe.faultyLit[h], fe.goodLit(h)
			fe.enc.Clause(e, fh, gh)
			fe.enc.Clause(e, fh.Not(), gh.Not())
			fe.lits = append(fe.lits[:0], e)
			for x := xorLo; x < xorHi; x++ {
				fe.lits = append(fe.lits, cnf.NewLit(x, false))
			}
			fe.enc.Clause(fe.lits...)
			n++
		}
		sp.xorHi = n
	}

	for k, f := range members {
		if fe.unobservable[k] {
			continue
		}
		sp := &fe.spans[k]
		fe.selectors[k] = n
		s := cnf.NewLit(n, true)
		fe.enc.Clause(s, cnf.NewLit(int(fe.goodVar[f.Net]), f.StuckAt))
		fe.lits = append(fe.lits[:0], s)
		for x := sp.xorLo; x < sp.xorHi; x++ {
			fe.lits = append(fe.lits, cnf.NewLit(x, false))
		}
		fe.enc.Clause(fe.lits...)
		n++
	}
	fe.priority = fe.priority[:0]
	for _, in := range c.Inputs {
		if fe.goodAt[in] == fe.goodStamp {
			fe.priority = append(fe.priority, int(fe.goodVar[in]))
		}
	}
	f := fe.enc.Finish(n)
	fe.base = nil
	if held {
		return f, nil
	}
	fe.held, fe.heldClauses = append(fe.held[:0], fe.ids...), good
	fe.baseF = cnf.Formula{NumVars: len(fe.ids), Clauses: f.Clauses[:good]}
	fe.base = &fe.baseF
	f.Clauses = f.Clauses[good:] // f is the encoder's own until the next encode
	return f, nil
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

// assumptions appends member k's assumption literals for the last
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
// don't-cares returned as false; lex-first branching over the priority
// gives the inputs irrelevant to a member the same value, so its vector
// equals the one its own Miter formula yields under the same branching.
func (fe *formulaEncoder) extract(model []bool) []bool {
	vec := make([]bool, len(fe.c.Inputs))
	for i, in := range fe.c.Inputs {
		if fe.goodAt[in] == fe.goodStamp {
			vec[i] = model[fe.goodVar[in]]
		}
	}
	return vec
}
