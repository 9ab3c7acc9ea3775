// Package faultsim implements parallel-pattern single-fault simulation:
// 64 input patterns are evaluated per machine word, the faulty circuit is
// obtained by forcing the fault net, and a fault is detected by a pattern
// when any primary output differs from the good response.
//
// Queries are event-driven: only nodes whose value actually diverges from
// the good simulation are re-evaluated, in topological order via a small
// binary heap of pending node IDs, so a query costs O(|diverged region|)
// instead of O(|fanout cone|) — and nothing is copied per query. The ATPG
// engine uses the simulator for the random-pattern pre-phase (DetectAll
// over the whole undetected fault list), to verify generated tests, and to
// drop faults covered by already generated vectors (test-set compaction,
// DetectsAny early exit).
package faultsim

import (
	"fmt"

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
// queries against the same pattern batch.
type Simulator struct {
	c        *logic.Circuit
	inputs   []uint64
	nPat     int
	goodVals []uint64
	goodOut  []uint64 // per output, good responses
	outIdx   []int32  // per node, index into c.Outputs, or -1

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
// patterns, pre-packed with PackPatterns).
func NewSimulator(c *logic.Circuit, inputs []uint64, nPatterns int) (*Simulator, error) {
	s := &Simulator{c: c}
	s.outIdx = make([]int32, c.NumNodes())
	for i := range s.outIdx {
		s.outIdx[i] = -1
	}
	for i, o := range c.Outputs {
		s.outIdx[o] = int32(i)
	}
	if err := s.Reset(inputs, nPatterns); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-targets the simulator at a new pattern batch over the same
// circuit, reusing its buffers. The ATPG engine calls it once per
// fault-simulation flush (and once per random-pattern batch) instead of
// allocating a fresh simulator.
func (s *Simulator) Reset(inputs []uint64, nPatterns int) error {
	c := s.c
	if nPatterns < 0 || nPatterns > 64 {
		return fmt.Errorf("faultsim: nPatterns %d out of range", nPatterns)
	}
	if len(inputs) != len(c.Inputs) {
		return fmt.Errorf("faultsim: %d input words for %d inputs", len(inputs), len(c.Inputs))
	}
	s.inputs, s.nPat = inputs, nPatterns
	s.goodVals = c.Simulate64Into(s.goodVals, inputs)
	if cap(s.goodOut) >= len(c.Outputs) {
		s.goodOut = s.goodOut[:len(c.Outputs)]
	} else {
		s.goodOut = make([]uint64, len(c.Outputs))
	}
	for i, o := range c.Outputs {
		s.goodOut[i] = s.goodVals[o]
	}
	if cap(s.vals) < c.NumNodes() {
		s.vals = make([]uint64, c.NumNodes())
	}
	s.vals = s.vals[:c.NumNodes()]
	if cap(s.divergedAt) < c.NumNodes() {
		// Fresh (zeroed) stamps; the epoch counter continues, staying above
		// every stamp in the new slices.
		s.divergedAt = make([]uint32, c.NumNodes())
		s.queuedAt = make([]uint32, c.NumNodes())
	}
	s.divergedAt = s.divergedAt[:c.NumNodes()]
	s.queuedAt = s.queuedAt[:c.NumNodes()]
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
// and is therefore popped first. Nodes whose recomputed value matches the
// good simulation stop the event wave.
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
	if forced == s.goodVals[net] {
		return 0 // no pattern activates the fault
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
	mask := s.mask()
	var det uint64
	if oi := s.outIdx[net]; oi >= 0 {
		det = forced ^ s.goodOut[oi]
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
		if nv == s.goodVals[id] {
			continue
		}
		s.vals[id] = nv
		s.divergedAt[id] = s.epoch
		if oi := s.outIdx[id]; oi >= 0 {
			det |= nv ^ s.goodOut[oi]
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
