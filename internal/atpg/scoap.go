package atpg

// SCOAP-style testability measures (Goldstein 1979), the classic cheap
// predictors of per-fault ATPG difficulty: CC0/CC1 estimate how many
// line assignments it takes to set a net to 0/1, CO how many it takes to
// propagate the net's value to a primary output. The effort log pairs
// them with the observed solver effort so cmd/atpgreport can measure how
// much of the paper's "ATPG is easy" structure these O(circuit) features
// already explain.

import "atpgeasy/internal/logic"

// scoapInf saturates the additive SCOAP recurrences: a net that cannot
// be controlled/observed (constant nets, dead cones) pins at this value
// instead of overflowing when summed across wide gates.
const scoapInf int32 = 1 << 28

func satAdd(a, b int32) int32 {
	s := a + b
	if s >= scoapInf || s < 0 {
		return scoapInf
	}
	return s
}

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// Scoap holds the per-net testability measures of one circuit, indexed
// by node ID.
type Scoap struct {
	CC0 []int32 // combinational 0-controllability
	CC1 []int32 // combinational 1-controllability
	CO  []int32 // combinational observability
}

// ComputeScoap runs the two classic passes: controllabilities forward in
// topological order, observabilities backward. Inversion bubbles on gate
// inputs swap the controllability seen through that pin. XOR/XNOR gates
// are n-ary parity here (matching logic.Eval), handled by the standard
// even/odd dynamic program over the fanins.
func ComputeScoap(c *logic.Circuit) *Scoap {
	n := len(c.Nodes)
	s := &Scoap{CC0: make([]int32, n), CC1: make([]int32, n), CO: make([]int32, n)}

	// pinCC is the cost of driving gate input i of g to value v, seen from
	// inside the gate (a bubble swaps which driver controllability pays).
	pinCC := func(g *logic.Node, i int, v bool) int32 {
		d := g.Fanin[i]
		if g.Negated(i) {
			v = !v
		}
		if v {
			return s.CC1[d]
		}
		return s.CC0[d]
	}

	for _, id := range c.TopoOrder() {
		g := &c.Nodes[id]
		switch g.Type {
		case logic.Input:
			s.CC0[id], s.CC1[id] = 1, 1
		case logic.Const0:
			s.CC0[id], s.CC1[id] = 0, scoapInf
		case logic.Const1:
			s.CC0[id], s.CC1[id] = scoapInf, 0
		case logic.Buf, logic.Not:
			cc0 := satAdd(pinCC(g, 0, false), 1)
			cc1 := satAdd(pinCC(g, 0, true), 1)
			if g.Type == logic.Not {
				cc0, cc1 = satAdd(pinCC(g, 0, true), 1), satAdd(pinCC(g, 0, false), 1)
			}
			s.CC0[id], s.CC1[id] = cc0, cc1
		case logic.And, logic.Nand, logic.Or, logic.Nor:
			// ctrl is the gate's controlling input value (0 for AND-family,
			// 1 for OR-family): one controlling pin forces the output, all
			// non-controlling pins are needed for the other value.
			ctrl := false
			if g.Type == logic.Or || g.Type == logic.Nor {
				ctrl = true
			}
			one := scoapInf // cheapest single controlling pin
			all := int32(0) // every pin at the non-controlling value
			for i := range g.Fanin {
				one = minI32(one, pinCC(g, i, ctrl))
				all = satAdd(all, pinCC(g, i, !ctrl))
			}
			forced, unforced := satAdd(one, 1), satAdd(all, 1)
			// AND: forced output is 0; OR: forced output is 1.
			cc0, cc1 := forced, unforced
			if ctrl {
				cc0, cc1 = unforced, forced
			}
			if g.Type == logic.Nand || g.Type == logic.Nor {
				cc0, cc1 = cc1, cc0
			}
			s.CC0[id], s.CC1[id] = cc0, cc1
		case logic.Xor, logic.Xnor:
			// Parity DP: even/odd is the cheapest cost of making the parity
			// of the pins seen so far even/odd.
			even, odd := int32(0), scoapInf
			for i := range g.Fanin {
				p0, p1 := pinCC(g, i, false), pinCC(g, i, true)
				even, odd = minI32(satAdd(even, p0), satAdd(odd, p1)),
					minI32(satAdd(even, p1), satAdd(odd, p0))
			}
			cc0, cc1 := satAdd(even, 1), satAdd(odd, 1)
			if g.Type == logic.Xnor {
				cc0, cc1 = cc1, cc0
			}
			s.CC0[id], s.CC1[id] = cc0, cc1
		}
	}

	for i := range s.CO {
		s.CO[i] = scoapInf
	}
	for _, o := range c.Outputs {
		s.CO[o] = 0
	}
	topo := c.TopoOrder()
	// Readers come after their drivers in topo order, so one reverse walk
	// sees every reader's CO before relaxing its fanin nets.
	for k := len(topo) - 1; k >= 0; k-- {
		id := topo[k]
		g := &c.Nodes[id]
		if len(g.Fanin) == 0 || s.CO[id] >= scoapInf {
			continue
		}
		for i, d := range g.Fanin {
			var side int32 // cost of sensitizing the path through the other pins
			switch g.Type {
			case logic.Buf, logic.Not:
				side = 0
			case logic.And, logic.Nand:
				for j := range g.Fanin {
					if j != i {
						side = satAdd(side, pinCC(g, j, true))
					}
				}
			case logic.Or, logic.Nor:
				for j := range g.Fanin {
					if j != i {
						side = satAdd(side, pinCC(g, j, false))
					}
				}
			case logic.Xor, logic.Xnor:
				for j := range g.Fanin {
					if j != i {
						side = satAdd(side, minI32(pinCC(g, j, false), pinCC(g, j, true)))
					}
				}
			}
			co := satAdd(s.CO[id], satAdd(side, 1))
			s.CO[d] = minI32(s.CO[d], co)
		}
	}
	return s
}
