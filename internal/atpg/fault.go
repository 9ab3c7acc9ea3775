// Package atpg implements SAT-based automatic test pattern generation in
// the Larrabee/TEGUS formulation analyzed by "Why is ATPG Easy?": the
// problem ATPG(C, ψ(X, B)) is cast as CIRCUIT-SAT on the circuit C_ψ^ATPG
// (Figure 3 of the paper) — the pairwise XOR of the outputs of C_ψ^sub
// (the transitive fanin of the transitive fanout of the fault point) and
// C_ψ^fo (the faulty copy of the transitive fanout).
//
// The package provides fault enumeration and structural collapsing, the
// subcircuit and miter constructions, the engine's direct ATPG-SAT
// encoding, a per-fault engine with test extraction and verification,
// and a full-circuit run with fault-simulation-based test-set
// compaction.
package atpg

import (
	"fmt"

	"atpgeasy/internal/logic"
)

// Fault is a single stuck-at fault ψ = ψ(X, B): net X permanently stuck
// at logic value B.
type Fault struct {
	Net     int  // node ID of the fault net X in the circuit
	StuckAt bool // the stuck value B
}

// String renders the fault in conventional notation, e.g. "f/0".
func (f Fault) String() string {
	v := 0
	if f.StuckAt {
		v = 1
	}
	return fmt.Sprintf("net%d/%d", f.Net, v)
}

// Name renders the fault with the net's name in the circuit, e.g. "f/1".
func (f Fault) Name(c *logic.Circuit) string {
	if f.StuckAt {
		return c.Nodes[f.Net].Name + "/1"
	}
	return c.Nodes[f.Net].Name + "/0"
}

// AllFaults enumerates both stuck-at faults on every net of the circuit
// (2·|nets| faults). Constant-driver nets are skipped: a stuck-at fault
// equal to the constant is undetectable by construction and the opposite
// one is equivalent to a fault on the reader.
func AllFaults(c *logic.Circuit) []Fault {
	var out []Fault
	for id := range c.Nodes {
		switch c.Nodes[id].Type {
		case logic.Const0, logic.Const1:
			continue
		}
		out = append(out, Fault{Net: id, StuckAt: false}, Fault{Net: id, StuckAt: true})
	}
	return out
}

// Collapse performs structural fault collapsing by gate-local equivalence:
// when net X's only reader is a gate g, certain faults on X are equivalent
// to faults on g's output net and are dropped in favor of the output
// fault:
//
//	BUF:  X/v ≡ g/v        NOT: X/v ≡ g/¬v
//	AND:  X/0 ≡ g/0        OR:  X/1 ≡ g/1
//	NAND: X/0 ≡ g/1        NOR: X/1 ≡ g/0
//
// An inversion bubble on g's input consuming X flips the X-side value.
// XOR/XNOR gates admit no such equivalence. The result preserves fault
// coverage: every dropped fault has exactly the same test set as a kept
// fault.
func Collapse(c *logic.Circuit, faults []Fault) []Fault {
	outSet := make(map[int]bool, len(c.Outputs))
	for _, o := range c.Outputs {
		outSet[o] = true
	}
	drop := make(map[Fault]bool)
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if len(n.Fanout) != 1 {
			continue
		}
		// A net that is itself a primary output is directly observable;
		// its faults are not equivalent to faults on the reader.
		if outSet[id] {
			continue
		}
		gID := n.Fanout[0]
		g := &c.Nodes[gID]
		// Find the pin(s) of g fed by X; with a single reader there can
		// still be multiple pins (e.g. AND(x,x)) — require exactly one.
		pin := -1
		count := 0
		for i, f := range g.Fanin {
			if f == id {
				pin = i
				count++
			}
		}
		if count != 1 {
			continue
		}
		inv := g.Negated(pin)
		switch g.Type {
		case logic.Buf, logic.Not:
			// Both faults on X collapse onto g.
			drop[Fault{Net: id, StuckAt: false}] = true
			drop[Fault{Net: id, StuckAt: true}] = true
		case logic.And, logic.Nand:
			// The controlling value of AND is 0 at the pin; on the net it
			// is 0 XOR inv.
			drop[Fault{Net: id, StuckAt: inv}] = true
		case logic.Or, logic.Nor:
			drop[Fault{Net: id, StuckAt: !inv}] = true
		}
	}
	out := make([]Fault, 0, len(faults))
	for _, f := range faults {
		if !drop[f] {
			out = append(out, f)
		}
	}
	return out
}

// DominancePair records one dominance-collapsing decision: Dropped is a
// gate-output fault removed from the list, Justifier the input-side fault
// that dominates it — every test detecting Justifier also detects Dropped.
type DominancePair struct {
	Dropped   Fault
	Justifier Fault
}

// DominancePairs finds the dominance relations CollapseDominance acts on.
// For a gate g with an input net X read only by g (one pin, not a primary
// output), a test for the X-side fault at g's non-controlled pin value
// must drive every other pin non-controlling and propagate through g —
// so it also detects the corresponding output fault:
//
//	AND:  X@1 dominates g/1    NAND: X@1 dominates g/0
//	OR:   X@0 dominates g/0    NOR:  X@0 dominates g/1
//
// (X@s is the pin-side value; the net-side fault is X/(s XOR inv) when
// the pin carries an inversion bubble.) The single-reader condition makes
// g the only propagation path for the justifier, and X not being an
// output keeps it unobservable except through g; under those conditions
// the faulty circuits for Justifier and Dropped agree on every net
// downstream of g, so detection coincides. XOR/XNOR gates have no
// controlling value and admit no dominance. Both faults must be present
// in the incoming list; chains (a justifier that is itself dropped at its
// own gate) are safe because justifiers always lie strictly earlier in
// topological order, terminating at a kept fault.
func DominancePairs(c *logic.Circuit, faults []Fault) []DominancePair {
	have := make(map[Fault]bool, len(faults))
	for _, f := range faults {
		have[f] = true
	}
	outSet := make(map[int]bool, len(c.Outputs))
	for _, o := range c.Outputs {
		outSet[o] = true
	}
	var pairs []DominancePair
	for id := range c.Nodes {
		g := &c.Nodes[id]
		var s, d bool // justifier pin value, dropped output stuck value
		switch g.Type {
		case logic.And:
			s, d = true, true
		case logic.Nand:
			s, d = true, false
		case logic.Or:
			s, d = false, false
		case logic.Nor:
			s, d = false, true
		default:
			continue
		}
		dropped := Fault{Net: id, StuckAt: d}
		if !have[dropped] {
			continue
		}
		for pin, x := range g.Fanin {
			// Fanout lists one entry per reading pin, so length 1 means g
			// reads X on exactly this pin and nothing else reads it.
			if len(c.Nodes[x].Fanout) != 1 || outSet[x] {
				continue
			}
			j := Fault{Net: x, StuckAt: s != g.Negated(pin)}
			if !have[j] {
				continue
			}
			pairs = append(pairs, DominancePair{Dropped: dropped, Justifier: j})
			break // one justifier suffices to drop the output fault
		}
	}
	return pairs
}

// CollapseDominance performs dominance-based fault collapsing on top of
// equivalence collapsing: each dominated gate-output fault found by
// DominancePairs is dropped in favor of its justifier. Unlike
// equivalence, dominance shrinks the fault list without changing which
// tests the kept faults require — any complete test set for the collapsed
// list still detects every dropped fault whose justifier is testable.
func CollapseDominance(c *logic.Circuit, faults []Fault) []Fault {
	pairs := DominancePairs(c, faults)
	if len(pairs) == 0 {
		return faults
	}
	drop := make(map[Fault]bool, len(pairs))
	for _, p := range pairs {
		drop[p.Dropped] = true
	}
	out := make([]Fault, 0, len(faults)-len(pairs))
	for _, f := range faults {
		if !drop[f] {
			out = append(out, f)
		}
	}
	return out
}
