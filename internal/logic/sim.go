package logic

import "fmt"

// Eval computes the output of a gate of type t from its input values.
// It panics for Input/Const types, which have no inputs to evaluate
// (use Simulate for whole-circuit evaluation, which handles them).
func Eval(t GateType, in []bool) bool {
	switch t {
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		v := true
		for _, x := range in {
			v = v && x
		}
		if t == Nand {
			return !v
		}
		return v
	case Or, Nor:
		v := false
		for _, x := range in {
			v = v || x
		}
		if t == Nor {
			return !v
		}
		return v
	case Xor, Xnor:
		v := false
		for _, x := range in {
			v = v != x
		}
		if t == Xnor {
			return !v
		}
		return v
	default:
		panic(fmt.Sprintf("logic: Eval on %s gate", t))
	}
}

// Eval64 is Eval over 64 patterns packed one per bit.
func Eval64(t GateType, in []uint64) uint64 {
	switch t {
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And, Nand:
		v := ^uint64(0)
		for _, x := range in {
			v &= x
		}
		if t == Nand {
			return ^v
		}
		return v
	case Or, Nor:
		v := uint64(0)
		for _, x := range in {
			v |= x
		}
		if t == Nor {
			return ^v
		}
		return v
	case Xor, Xnor:
		v := uint64(0)
		for _, x := range in {
			v ^= x
		}
		if t == Xnor {
			return ^v
		}
		return v
	default:
		panic(fmt.Sprintf("logic: Eval64 on %s gate", t))
	}
}

// Simulate evaluates the circuit on one input pattern. inputs[i] is the
// value of c.Inputs[i]. It returns the value of every net, indexed by
// node ID. len(inputs) must equal len(c.Inputs).
func (c *Circuit) Simulate(inputs []bool) []bool {
	if len(inputs) != len(c.Inputs) {
		panic(fmt.Sprintf("logic: Simulate on %q: %d input values for %d inputs", c.Name, len(inputs), len(c.Inputs)))
	}
	vals := make([]bool, len(c.Nodes))
	for i, in := range c.Inputs {
		vals[in] = inputs[i]
	}
	var buf []bool
	for _, id := range c.topo {
		n := &c.Nodes[id]
		switch n.Type {
		case Input:
			// already set
		case Const0:
			vals[id] = false
		case Const1:
			vals[id] = true
		default:
			buf = buf[:0]
			for i, f := range n.Fanin {
				buf = append(buf, vals[f] != n.Negated(i))
			}
			vals[id] = Eval(n.Type, buf)
		}
	}
	return vals
}

// SimulateOutputs evaluates the circuit and returns just the primary
// output values, in c.Outputs order.
func (c *Circuit) SimulateOutputs(inputs []bool) []bool {
	vals := c.Simulate(inputs)
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = vals[o]
	}
	return out
}

// Simulate64 evaluates 64 input patterns at once. inputs[i] packs the
// 64 values of primary input i, one per bit. It returns the 64 values of
// every net, indexed by node ID.
func (c *Circuit) Simulate64(inputs []uint64) []uint64 {
	if len(inputs) != len(c.Inputs) {
		panic(fmt.Sprintf("logic: Simulate64 on %q: %d input words for %d inputs", c.Name, len(inputs), len(c.Inputs)))
	}
	vals := make([]uint64, len(c.Nodes))
	for i, in := range c.Inputs {
		vals[in] = inputs[i]
	}
	// Stack-backed fanin buffer: Eval64 never retains its argument, so
	// gates with fanin <= 8 (all of them, in practice) evaluate without
	// touching the heap.
	var bufArr [8]uint64
	buf := bufArr[:0]
	for _, id := range c.topo {
		n := &c.Nodes[id]
		switch n.Type {
		case Input:
		case Const0:
			vals[id] = 0
		case Const1:
			vals[id] = ^uint64(0)
		default:
			buf = buf[:0]
			for i, f := range n.Fanin {
				v := vals[f]
				if n.Negated(i) {
					v = ^v
				}
				buf = append(buf, v)
			}
			vals[id] = Eval64(n.Type, buf)
		}
	}
	return vals
}

// SimulateWith evaluates the circuit on one pattern but with the given
// nets forced to fixed values (fault injection): forced maps node ID to
// the asserted value, overriding the node's computed function. This is
// the faulted circuit C_psi of the paper when forced holds a single
// stuck-at entry.
func (c *Circuit) SimulateWith(inputs []bool, forced map[int]bool) []bool {
	if len(inputs) != len(c.Inputs) {
		panic(fmt.Sprintf("logic: SimulateWith on %q: %d input values for %d inputs", c.Name, len(inputs), len(c.Inputs)))
	}
	vals := make([]bool, len(c.Nodes))
	for i, in := range c.Inputs {
		vals[in] = inputs[i]
	}
	var buf []bool
	for _, id := range c.topo {
		if v, ok := forced[id]; ok {
			vals[id] = v
			continue
		}
		n := &c.Nodes[id]
		switch n.Type {
		case Input:
		case Const0:
			vals[id] = false
		case Const1:
			vals[id] = true
		default:
			buf = buf[:0]
			for i, f := range n.Fanin {
				buf = append(buf, vals[f] != n.Negated(i))
			}
			vals[id] = Eval(n.Type, buf)
		}
	}
	return vals
}
