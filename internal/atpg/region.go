package atpg

// Region-grouped incremental solving: collapsed faults whose ATPG-SAT
// instances share a transitive-fanout region are encoded into one
// formula with per-fault activation (selector) literals and solved on
// one incremental CDCL instance under assumptions, so clauses learned
// for one fault prune the search for its region neighbors (InF-ATPG's
// fanout-region organization, PAPERS.md). This file holds the grouping:
// region heads and the canonical group order. The group formula is
// formulaEncoder.encode's (formula.go).

import (
	"sort"

	"atpgeasy/internal/logic"
)

// DefaultGroupMax is the group-size cap when RunOptions.GroupMax is
// zero: big enough that a fanout-free region's faults share one solver
// instance, small enough that one group never monopolizes a worker.
const DefaultGroupMax = 64

// regionHeads computes, for every net, the head of its fanout region:
// the first dominator at which its transitive fanout joins general
// fanout. A net with exactly one distinct reader inherits that
// reader's head (its fanout cone is {net} ∪ cone(reader), so its miter
// support C_ψ^sub is identical); a fanout stem or sink is its own
// head. Faults with equal heads have (near-)identical miter support
// and are grouped onto one solver instance, where they share one faulty
// copy of the head's fanout cone (formula.go). Node IDs are
// topologically ordered, so one reverse sweep suffices.
func regionHeads(c *logic.Circuit) []int32 {
	head := make([]int32, len(c.Nodes))
	for id := len(c.Nodes) - 1; id >= 0; id-- {
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
			head[id] = head[reader]
		} else {
			head[id] = int32(id)
		}
	}
	return head
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
// spans over the region heads head (regionHeads(c)). The order is
// canonical and independent of groupMax: regions are sorted by (largest
// member cone first, smallest member index among equals), members
// within a region by (cone, index), and groups are consecutive chunks
// of at most groupMax members that never span regions. Because the
// flattened fault order is identical for every groupMax, the engine's
// commit frontier, flush points and drop decisions are too: group size
// is purely a knowledge-reuse knob, with groupMax 1 degenerating to
// fresh-per-fault solving.
func buildGroups(c *logic.Circuit, head []int32, faults []Fault, skip []bool, groupMax int) ([]int32, []faultGroup) {
	if groupMax <= 0 {
		groupMax = DefaultGroupMax
	}
	sizer := newConeSizer(c)

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
		cone[i] = sizer.coneOf(f.Net)
		r := head[f.Net]
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
