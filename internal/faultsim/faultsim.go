// Package faultsim implements parallel-pattern single-fault simulation:
// 64 input patterns are evaluated per machine word, the faulty circuit is
// obtained by forcing the fault net, and a fault is detected by a pattern
// when any primary output differs from the good response.
//
// Queries are event-driven: only nodes whose value actually diverges from
// the good simulation on a valid pattern are re-evaluated, in topological
// order via a small binary heap of pending node IDs, so a query costs
// O(|diverged region|) instead of O(|fanout cone|) — and nothing is copied
// per query. A batch of fewer than 64 patterns leaves its unused lanes
// out of every comparison, so a one-pattern batch simulates one pattern,
// not 63 copies of the all-zero one besides it.
//
// The good simulation is updated in place: NewSimulator simulates the
// whole circuit once, and Reset re-evaluates only the nodes downstream of
// the input words that changed, in one ascending sweep over node IDs
// (which are topological). The ATPG engine uses the simulator for the
// random-pattern pre-phase (DetectAll over the whole undetected fault
// list), to check each committed vector against its own fault, and to drop
// faults covered by already generated vectors (test-set compaction,
// DetectsAny early exit); consecutive committed vectors share most input
// values, so each one re-simulates little.
package faultsim

import (
	"fmt"
	"slices"

	"atpgeasy/internal/logic"
)

// PackPatterns packs up to 64 test vectors (each over the circuit's
// primary inputs) into one word per input: bit p of word i is the value of
// input i in pattern p.
func PackPatterns(c *logic.Circuit, vecs [][]bool) ([]uint64, error) {
	return PackPatternsInto(nil, c, vecs)
}

// PackPatternsInto is PackPatterns reusing dst's backing array when it is
// large enough; the ATPG engine calls it with per-worker scratch so each
// drop flush packs its vector allocation-free.
func PackPatternsInto(dst []uint64, c *logic.Circuit, vecs [][]bool) ([]uint64, error) {
	if len(vecs) > 64 {
		return nil, fmt.Errorf("faultsim: %d patterns exceed word width 64", len(vecs))
	}
	words := dst
	if cap(words) >= len(c.Inputs) {
		words = words[:len(c.Inputs)]
		clear(words)
	} else {
		words = make([]uint64, len(c.Inputs))
	}
	for p, v := range vecs {
		if len(v) != len(c.Inputs) {
			return nil, fmt.Errorf("faultsim: pattern %d has %d values for %d inputs", p, len(v), len(c.Inputs))
		}
		for i, bit := range v {
			if bit {
				words[i] |= 1 << uint(p)
			}
		}
	}
	return words, nil
}

// Simulator amortizes the good-circuit simulation across many fault
// queries against the same pattern batch, and across batches: Reset
// updates the good simulation in place.
type Simulator struct {
	c        *logic.Circuit
	words    []uint64 // the batch's input words, a copy
	nPat     int
	goodVals []uint64
	isOut    []bool // per node: a primary output
	stale    []bool // Reset's pending re-evaluations; all false between calls

	// Event-driven query state. A node's faulty value lives in vals only
	// while divergedAt stamps it with the current epoch; all other nodes
	// implicitly hold their good value, so queries never copy goodVals.
	vals       []uint64
	divergedAt []uint32 // epoch-stamped "faulty value differs from good"
	queuedAt   []uint32 // epoch-stamped membership in the event heap
	queue      []int32  // binary min-heap of pending node IDs
	epoch      uint32
}

// NewSimulator prepares a simulator for the given pattern batch (≤ 64
// patterns, pre-packed with PackPatterns): it simulates the whole good
// circuit once.
func NewSimulator(c *logic.Circuit, inputs []uint64, nPatterns int) (*Simulator, error) {
	if err := check(c, inputs, nPatterns); err != nil {
		return nil, err
	}
	n := c.NumNodes()
	s := &Simulator{
		c:          c,
		words:      slices.Clone(inputs),
		nPat:       nPatterns,
		goodVals:   c.Simulate64(inputs),
		isOut:      make([]bool, n),
		stale:      make([]bool, n),
		vals:       make([]uint64, n),
		divergedAt: make([]uint32, n),
		queuedAt:   make([]uint32, n),
	}
	for _, o := range c.Outputs {
		s.isOut[o] = true
	}
	return s, nil
}

// check validates a pattern batch for circuit c.
func check(c *logic.Circuit, inputs []uint64, nPatterns int) error {
	if nPatterns < 0 || nPatterns > 64 {
		return fmt.Errorf("faultsim: nPatterns %d out of range", nPatterns)
	}
	if len(inputs) != len(c.Inputs) {
		return fmt.Errorf("faultsim: %d input words for %d inputs", len(inputs), len(c.Inputs))
	}
	return nil
}

// Reset re-targets the simulator at a new pattern batch over the same
// circuit. It re-evaluates only the nodes downstream of the input words
// that changed since the last batch, in one ascending sweep over node IDs
// (which are topological), and stops at nodes whose value does not
// change. It keeps its own copy of the words, since callers refill their
// buffers in place. The ATPG engine calls it once per committed vector —
// one pattern, so consecutive vectors that share most input values
// re-evaluate little — and once per random-pattern batch.
func (s *Simulator) Reset(inputs []uint64, nPatterns int) error {
	c := s.c
	if err := check(c, inputs, nPatterns); err != nil {
		return err
	}
	s.nPat = nPatterns
	lo, hi := len(c.Nodes), -1
	for i, w := range inputs {
		if w == s.words[i] {
			continue
		}
		s.words[i] = w
		in := c.Inputs[i]
		s.goodVals[in] = w
		for _, fo := range c.Nodes[in].Fanout {
			s.stale[fo] = true
			lo, hi = min(lo, fo), max(hi, fo)
		}
	}
	var buf [8]uint64
	for id := lo; id <= hi; id++ {
		if !s.stale[id] {
			continue
		}
		s.stale[id] = false
		n := &c.Nodes[id]
		ins := buf[:0]
		for i, fi := range n.Fanin {
			v := s.goodVals[fi]
			if n.Negated(i) {
				v = ^v
			}
			ins = append(ins, v)
		}
		v := logic.Eval64(n.Type, ins)
		if v == s.goodVals[id] {
			continue
		}
		s.goodVals[id] = v
		for _, fo := range n.Fanout {
			s.stale[fo] = true
			hi = max(hi, fo)
		}
	}
	return nil
}

// mask returns the valid-pattern mask.
func (s *Simulator) mask() uint64 {
	if s.nPat == 64 {
		return ^uint64(0)
	}
	return 1<<uint(s.nPat) - 1
}

// push schedules node id for evaluation in the current epoch, once.
func (s *Simulator) push(id int32) {
	if s.queuedAt[id] == s.epoch {
		return
	}
	s.queuedAt[id] = s.epoch
	q := append(s.queue, id)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	s.queue = q
}

// pop removes and returns the smallest pending node ID.
func (s *Simulator) pop() int32 {
	q := s.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(q) && q[l] < q[m] {
			m = l
		}
		if r < len(q) && q[r] < q[m] {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	s.queue = q
	return top
}

// detect is the event-driven query core. Node IDs are topologically
// ordered (Builder.add only references existing nodes), so popping the
// min-heap yields nodes in topological order and each node is evaluated
// at most once per query: every fanin that will diverge has a smaller ID
// and is therefore popped first. Only the batch's valid patterns count: a
// fault no valid pattern activates needs no wave, and a node whose
// recomputed value matches the good simulation on every valid pattern
// stops the wave (its unused lanes may differ; they are masked out of
// the result).
//
// With early set, the query returns as soon as any valid pattern reaches
// a primary output, leaving the mask partial — callers that only need
// detected-or-not (test-set compaction) use it to skip the rest of the
// divergence wave.
func (s *Simulator) detect(net int, stuckAt bool, early bool) uint64 {
	c := s.c
	forced := uint64(0)
	if stuckAt {
		forced = ^uint64(0)
	}
	mask := s.mask()
	if (forced^s.goodVals[net])&mask == 0 {
		return 0 // no valid pattern activates the fault
	}
	s.epoch++
	if s.epoch == 0 {
		// Epoch wrapped: stale stamps from 2^32 queries ago would alias the
		// new epoch and fake divergence or queue membership. Clear all
		// stamps and restart above zero (the cleared value).
		clear(s.divergedAt)
		clear(s.queuedAt)
		s.epoch = 1
	}
	s.vals[net] = forced
	s.divergedAt[net] = s.epoch
	var det uint64
	if s.isOut[net] {
		det = forced ^ s.goodVals[net]
		if early && det&mask != 0 {
			return det & mask
		}
	}
	s.queue = s.queue[:0]
	for _, fo := range c.Nodes[net].Fanout {
		s.push(int32(fo))
	}
	var buf [8]uint64
	for len(s.queue) > 0 {
		id := int(s.pop())
		n := &c.Nodes[id]
		ins := buf[:0]
		if len(n.Fanin) > len(buf) {
			ins = make([]uint64, 0, len(n.Fanin))
		}
		for i, fi := range n.Fanin {
			var v uint64
			if s.divergedAt[fi] == s.epoch {
				v = s.vals[fi]
			} else {
				v = s.goodVals[fi]
			}
			if n.Negated(i) {
				v = ^v
			}
			ins = append(ins, v)
		}
		nv := logic.Eval64(n.Type, ins)
		if (nv^s.goodVals[id])&mask == 0 {
			continue // agrees on every valid pattern: the wave stops here
		}
		s.vals[id] = nv
		s.divergedAt[id] = s.epoch
		if s.isOut[id] {
			det |= nv ^ s.goodVals[id]
			if early && det&mask != 0 {
				return det & mask
			}
		}
		for _, fo := range n.Fanout {
			s.push(int32(fo))
		}
	}
	return det & mask
}

// Detects returns the bitmask of patterns that detect the stuck-at fault
// (net, stuckAt): patterns where at least one primary output of the faulty
// circuit differs from the good response.
func (s *Simulator) Detects(net int, stuckAt bool) uint64 {
	return s.detect(net, stuckAt, false)
}

// DetectsAny is Detects with early exit: it returns a non-zero (possibly
// partial) mask as soon as the first output divergence is found. Use it
// when only detected-or-not matters.
func (s *Simulator) DetectsAny(net int, stuckAt bool) uint64 {
	return s.detect(net, stuckAt, true)
}

// DetectAll fault-simulates a whole fault list against the pattern batch,
// writing each fault's detecting-pattern mask into out (reused when its
// capacity suffices, allocated otherwise). With early set, masks may be
// partial (see DetectsAny). The ATPG engine shards a fault list across
// workers by slicing nets/stuckAts/out identically.
func (s *Simulator) DetectAll(nets []int, stuckAts []bool, out []uint64, early bool) []uint64 {
	if cap(out) >= len(nets) {
		out = out[:len(nets)]
	} else {
		out = make([]uint64, len(nets))
	}
	for i := range nets {
		out[i] = s.detect(nets[i], stuckAts[i], early)
	}
	return out
}

// Coverage fault-simulates a whole fault list against the pattern batch
// and returns, for each fault, the full detecting-pattern mask.
func (s *Simulator) Coverage(nets []int, stuckAts []bool) []uint64 {
	return s.DetectAll(nets, stuckAts, nil, false)
}

// ReferenceDetects computes Detects by brute force: a full 64-way
// re-simulation of the faulty circuit (every node, not just the diverged
// region). It exists as the oracle for property tests and as the baseline
// the event-driven benchmark compares against.
func ReferenceDetects(c *logic.Circuit, inputs []uint64, nPatterns int, net int, stuckAt bool) uint64 {
	good := c.Simulate64(inputs)
	forced := uint64(0)
	if stuckAt {
		forced = ^uint64(0)
	}
	vals := make([]uint64, c.NumNodes())
	for i, in := range c.Inputs {
		vals[in] = inputs[i]
	}
	var buf []uint64
	for _, id := range c.TopoOrder() {
		if id == net {
			vals[id] = forced
			continue
		}
		n := &c.Nodes[id]
		switch n.Type {
		case logic.Input:
		case logic.Const0:
			vals[id] = 0
		case logic.Const1:
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
			vals[id] = logic.Eval64(n.Type, buf)
		}
	}
	var det uint64
	for _, o := range c.Outputs {
		det |= good[o] ^ vals[o]
	}
	if nPatterns >= 64 {
		return det
	}
	return det & (1<<uint(nPatterns) - 1)
}
