package atpg

// Region-grouped incremental solving: collapsed faults whose ATPG-SAT
// instances share a transitive-fanout region are encoded into one
// formula with per-fault activation (selector) literals and solved on
// one incremental CDCL instance under assumptions, so clauses learned
// for one fault prune the search for its region neighbors (InF-ATPG's
// fanout-region organization, PAPERS.md). This file holds the grouping:
// the region table (heads, chains and each head's cone shape) and the
// canonical group order. The group formula is formulaEncoder.encode's
// (formula.go).

import (
	"sort"

	"atpgeasy/internal/logic"
)

// DefaultGroupMax is the group-size cap when RunOptions.GroupMax is
// zero: big enough that a fanout-free region's faults share one solver
// instance, small enough that one group never monopolizes a worker.
const DefaultGroupMax = 64

// regionTable is a circuit's fanout regions. One reverse sweep gives
// every net its region head — the first dominator at which its
// transitive fanout joins general fanout — and its chain, the
// single-reader path from the net up to the head (head excluded). A net
// with exactly one distinct reader inherits that reader's head (its
// fanout cone is {net} ∪ cone(reader), so its miter support C_ψ^sub is
// identical); a fanout stem or sink is its own head. Faults with equal
// heads have (near-)identical miter support and are grouped onto one
// solver instance, where they share one faulty copy of the head's
// fanout cone (formula.go).
//
// The same fact makes a fault's structure its head's: the chain lies in
// the head's fanin, so a fault's fanout cone is its chain followed by
// the head's cone, and the fanin of that cone is the head's. So the
// table walks each head once, on first use (shape), and a fault reads
// its cone size, cone depth and sub-circuit gate count off its head.
// The walks are not safe for concurrent use: a run reads shapes
// serially before its sweep, and its workers share only head.
type regionTable struct {
	c     *logic.Circuit
	head  []int32    // per net: the head of its fanout region
	chain []int32    // per net: its chain's length (0 for a head)
	cones []headCone // per head net, filled in by shape
	mark  []uint32
	stamp uint32
	walk  []int
}

// headCone is the shape of one region head's fanout cone.
type headCone struct {
	size     int32 // node count, the head included; 0 until walked
	maxLevel int32 // deepest logic level in the cone
	gates    int32 // gate count of the cone's fanin (C_ψ^sub), once counted
	counted  bool
}

// newRegionTable computes every net's head and chain. Node IDs are
// topologically ordered, so one reverse sweep suffices.
func newRegionTable(c *logic.Circuit) *regionTable {
	n := len(c.Nodes)
	rt := &regionTable{
		c: c, head: make([]int32, n), chain: make([]int32, n),
		cones: make([]headCone, n), mark: make([]uint32, n),
	}
	for id := n - 1; id >= 0; id-- {
		reader := -1
		multi := false
		// Fanout has one entry per reading pin; a gate reading the net
		// twice is still a single reader.
		for _, fo := range c.Nodes[id].Fanout {
			if reader == -1 {
				reader = fo
			} else if fo != reader {
				multi = true
				break
			}
		}
		if reader >= 0 && !multi {
			rt.head[id], rt.chain[id] = rt.head[reader], rt.chain[reader]+1
		} else {
			rt.head[id] = int32(id)
		}
	}
	return rt
}

// coneSize is the node count of net's fanout cone, the structural effort
// proxy the dispatch order is sorted by: the formula encodes the fanin
// of the fanout cone, so a bigger cone means a bigger ATPG-SAT instance,
// and scheduling the expensive faults first keeps one hard fault from
// serializing the tail of a parallel run.
func (rt *regionTable) coneSize(net int) int32 {
	return rt.chain[net] + rt.shape(rt.head[net], false).size
}

// shape returns head h's cone shape, walking its fanout the first time
// and, the first time gates are asked for, the cone's fanin too.
func (rt *regionTable) shape(h int32, gates bool) *headCone {
	hc := &rt.cones[h]
	if hc.size > 0 && (hc.counted || !gates) {
		return hc
	}
	c := rt.c
	stamp := bump(&rt.stamp, rt.mark)
	rt.mark[h] = stamp
	rt.walk = append(rt.walk[:0], int(h))
	for k := 0; k < len(rt.walk); k++ {
		n := rt.walk[k]
		hc.maxLevel = max(hc.maxLevel, int32(c.Level(n)))
		rt.visit(c.Nodes[n].Fanout, stamp)
	}
	hc.size = int32(len(rt.walk))
	if !gates {
		return hc
	}
	// The cone's nodes are marked already, so the fanin walk from them
	// adds only the side inputs' support.
	hc.counted = true
	for k := 0; k < len(rt.walk); k++ {
		n := rt.walk[k]
		if c.Nodes[n].Type >= logic.Buf {
			hc.gates++
		}
		rt.visit(c.Nodes[n].Fanin, stamp)
	}
	return hc
}

// visit appends the nodes of ids not yet marked with stamp to the walk.
func (rt *regionTable) visit(ids []int, stamp uint32) {
	for _, id := range ids {
		if rt.mark[id] != stamp {
			rt.mark[id] = stamp
			rt.walk = append(rt.walk, id)
		}
	}
}

// faultGroup is one unit of incremental dispatch: a consecutive span
// of the dispatch order whose faults share a fanout region and are
// solved on one incremental instance. id is the canonical group index
// (stable across worker counts and group-size caps of the faults it
// happens to contain; used by telemetry and effort records).
type faultGroup struct {
	id         int
	region     int32 // head net of the shared fanout region
	start, end int32 // span [start, end) of positions in the dispatch order
}

// result starts the Result of fault f solved in group g.
func (g *faultGroup) result(f Fault) Result {
	return Result{Fault: f, Group: g.id + 1, GroupSize: int(g.end - g.start)}
}

// buildGroups computes the incremental dispatch order and its group
// spans over the region table rt. The order is
// canonical and independent of groupMax: regions are sorted by (largest
// member cone first, smallest member index among equals), members
// within a region by (cone, index), and groups are consecutive chunks
// of at most groupMax members that never span regions. Because the
// flattened fault order is identical for every groupMax, the engine's
// commit frontier, flush points and drop decisions are too: group size
// is purely a knowledge-reuse knob, with groupMax 1 degenerating to
// fresh-per-fault solving.
func buildGroups(rt *regionTable, faults []Fault, skip []bool, groupMax int) ([]int32, []faultGroup) {
	if groupMax <= 0 {
		groupMax = DefaultGroupMax
	}

	type regionAgg struct {
		maxCone int32
		minIdx  int32
		members []int32
	}
	cone := make([]int32, len(faults))
	regs := make(map[int32]*regionAgg)
	var regOrder []int32
	for i, f := range faults {
		if skip != nil && skip[i] {
			continue
		}
		cone[i] = rt.coneSize(f.Net)
		r := rt.head[f.Net]
		agg := regs[r]
		if agg == nil {
			agg = &regionAgg{maxCone: cone[i], minIdx: int32(i)}
			regs[r] = agg
			regOrder = append(regOrder, r)
		}
		if cone[i] > agg.maxCone {
			agg.maxCone = cone[i]
		}
		agg.members = append(agg.members, int32(i))
	}
	sort.Slice(regOrder, func(a, b int) bool {
		ra, rb := regs[regOrder[a]], regs[regOrder[b]]
		if ra.maxCone != rb.maxCone {
			return ra.maxCone > rb.maxCone
		}
		return ra.minIdx < rb.minIdx
	})

	order := make([]int32, 0, len(faults))
	var groups []faultGroup
	for _, r := range regOrder {
		m := regs[r].members
		sort.Slice(m, func(a, b int) bool {
			if cone[m[a]] != cone[m[b]] {
				return cone[m[a]] > cone[m[b]]
			}
			return m[a] < m[b]
		})
		for lo := 0; lo < len(m); lo += groupMax {
			hi := lo + groupMax
			if hi > len(m) {
				hi = len(m)
			}
			groups = append(groups, faultGroup{
				id:     len(groups),
				region: r,
				start:  int32(len(order) + lo),
				end:    int32(len(order) + hi),
			})
		}
		order = append(order, m...)
	}
	return order, groups
}
