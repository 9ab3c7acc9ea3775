package atpg

import (
	"fmt"

	"atpgeasy/internal/cnf"
	"atpgeasy/internal/logic"
)

// SubCircuit extracts C_ψ^sub: the subcircuit of C containing all gates,
// inputs and outputs in the transitive fanin of the transitive fanout of
// the fault point X (Section 2). Its size approximates the variable count
// of the ATPG-SAT instance, and its cut-width is the quantity plotted in
// Figure 8 of the paper.
func SubCircuit(c *logic.Circuit, f Fault) (*logic.Subcircuit, error) {
	if f.Net < 0 || f.Net >= c.NumNodes() {
		return nil, fmt.Errorf("atpg: fault net %d out of range", f.Net)
	}
	fo := c.TransitiveFanout(f.Net)
	ids := c.TransitiveFanin(fo...)
	name := fmt.Sprintf("%s_sub_%s", c.Name, f.Name(c))
	// The observation points of the subcircuit are the primary outputs of
	// C reachable from X.
	outSet := make(map[int]bool)
	for _, o := range c.Outputs {
		outSet[o] = true
	}
	var extraOuts []int
	for _, id := range fo {
		if outSet[id] {
			extraOuts = append(extraOuts, id)
		}
	}
	return c.Induced(name, ids, extraOuts...)
}

// Miter is the circuit C_ψ^ATPG of Figure 3 together with the
// correspondence between its nets and the parent circuit's.
type Miter struct {
	// Circuit is C_ψ^ATPG: the good subcircuit C_ψ^sub, the faulty fanout
	// cone C_ψ^fo (with the fault net replaced by a constant driver), one
	// XOR per observable output pair, and the XORs as primary outputs.
	Circuit *logic.Circuit
	// Fault is the fault the miter was built for.
	Fault Fault
	// GoodOf maps a parent node ID to the miter node ID of its good copy,
	// or -1 when the parent node is outside C_ψ^sub.
	GoodOf []int
	// FaultyOf maps a parent node ID to the miter node ID of its faulty
	// copy, or -1 when the parent node is outside the fault's transitive
	// fanout.
	FaultyOf []int
	// GoodFault is the miter node ID of the good copy of the fault net;
	// a test must set it to the complement of the stuck value (fault
	// activation).
	GoodFault int
	// Observable lists the parent primary outputs reachable from the
	// fault, in XOR order.
	Observable []int
}

// ErrUnobservable is NewMiter's error for a fault with no observable
// output (trivially untestable); callers treat it as UNSAT without
// building a formula.
var ErrUnobservable = fmt.Errorf("atpg: fault has no observable output")

// NewMiter builds the ATPG miter C_ψ^ATPG for fault f on circuit c. The
// fault is untestable iff its CIRCUIT-SAT instance (see Encode) is
// unsatisfiable. Miter is the reference construction: Engine.TestFault
// solves it, and the engine's encoder (formula.go), which writes region
// group formulas straight from c, is tested against it.
func NewMiter(c *logic.Circuit, f Fault) (*Miter, error) {
	if f.Net < 0 || f.Net >= c.NumNodes() {
		return nil, fmt.Errorf("atpg: fault net %d out of range", f.Net)
	}
	foList := c.TransitiveFanout(f.Net)
	inFO := make([]bool, c.NumNodes())
	for _, id := range foList {
		inFO[id] = true
	}
	outSet := make(map[int]bool)
	for _, o := range c.Outputs {
		outSet[o] = true
	}
	var observable []int
	for _, id := range foList {
		if outSet[id] {
			observable = append(observable, id)
		}
	}
	if len(observable) == 0 {
		return nil, ErrUnobservable
	}
	subIDs := c.TransitiveFanin(foList...)

	b := logic.NewBuilder(fmt.Sprintf("%s_atpg_%s", c.Name, f.Name(c)))
	goodOf := make([]int, c.NumNodes())
	faultyOf := make([]int, c.NumNodes())
	for i := range goodOf {
		goodOf[i], faultyOf[i] = -1, -1
	}
	// Good copies of every node in C_ψ^sub (IDs are topologically sorted).
	for _, id := range subIDs {
		n := &c.Nodes[id]
		switch n.Type {
		case logic.Input:
			goodOf[id] = b.Input(n.Name)
		case logic.Const0:
			goodOf[id] = b.Const(n.Name, false)
		case logic.Const1:
			goodOf[id] = b.Const(n.Name, true)
		default:
			fanin := make([]int, len(n.Fanin))
			for i, fi := range n.Fanin {
				fanin[i] = goodOf[fi]
			}
			goodOf[id] = b.GateN(n.Type, n.Name, fanin, n.Neg)
		}
	}
	// Faulty copies of the transitive fanout: the fault net becomes a
	// constant driver; the rest read faulty copies where available and
	// good copies elsewhere (C_ψ^fo derives its inputs from signal points
	// in C_ψ^sub — Figure 3).
	for _, id := range foList {
		n := &c.Nodes[id]
		if id == f.Net {
			faultyOf[id] = b.Const(freshName(b, n.Name+"~flt"), f.StuckAt)
			continue
		}
		fanin := make([]int, len(n.Fanin))
		for i, fi := range n.Fanin {
			if inFO[fi] {
				fanin[i] = faultyOf[fi]
			} else {
				fanin[i] = goodOf[fi]
			}
		}
		faultyOf[id] = b.GateN(n.Type, freshName(b, n.Name+"~flt"), fanin, n.Neg)
	}
	// Pairwise XOR of the observable outputs; each XOR is a primary output
	// of the miter, so the CIRCUIT-SAT "some output is 1" clause states
	// that at least one output pair differs.
	for _, o := range observable {
		x := b.Gate(logic.Xor, freshName(b, c.Nodes[o].Name+"~xor"), goodOf[o], faultyOf[o])
		b.MarkOutput(x)
	}
	mc, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Miter{
		Circuit:    mc,
		Fault:      f,
		GoodOf:     goodOf,
		FaultyOf:   faultyOf,
		GoodFault:  goodOf[f.Net],
		Observable: observable,
	}, nil
}

// freshName returns name, extended until no node of b carries it yet.
// The copies' names never reach the clauses, but a parent net may
// already be called like one of them.
func freshName(b *logic.Builder, name string) string {
	for {
		if _, taken := b.Lookup(name); !taken {
			return name
		}
		name += "~"
	}
}

// Encode builds the ATPG-SAT formula: the CIRCUIT-SAT formula of the
// miter plus the fault-activation unit clause asserting the good fault
// net carries the complement of the stuck value. (The activation clause is
// implied by the XOR outputs but stating it explicitly matches the
// problem definition and speeds up every solver.)
func (m *Miter) Encode() (*cnf.Formula, error) {
	f, err := cnf.FromCircuit(m.Circuit, nil)
	if err != nil {
		return nil, err
	}
	f.AddClause(cnf.NewLit(m.GoodFault, m.Fault.StuckAt))
	return f, nil
}

// ExtractTest converts a satisfying model of the encoded miter into a test
// vector over the parent circuit's primary inputs. Inputs outside
// C_ψ^sub are don't-cares and returned as false.
func (m *Miter) ExtractTest(c *logic.Circuit, model []bool) []bool {
	vec := make([]bool, len(c.Inputs))
	for i, in := range c.Inputs {
		if mid := m.GoodOf[in]; mid >= 0 {
			vec[i] = model[mid]
		}
	}
	return vec
}

// VerifyTest checks by simulation that the vector detects the fault on
// the parent circuit: some primary output differs between C and C_ψ.
func VerifyTest(c *logic.Circuit, f Fault, vec []bool) bool {
	good := c.Simulate(vec)
	faulty := c.SimulateWith(vec, map[int]bool{f.Net: f.StuckAt})
	for _, o := range c.Outputs {
		if good[o] != faulty[o] {
			return true
		}
	}
	return false
}
