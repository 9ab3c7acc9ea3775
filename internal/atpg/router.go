package atpg

// Cut-width-guided fault routing: the portfolio dispatcher of the
// engine. The source paper's thesis is that cheap structural measures —
// cut-width above all — predict per-fault solver effort; the router
// turns that prediction into a dispatch decision. Each fault is scored
// from its FaultFeatures (cone size/depth, sub-circuit gate count,
// SCOAP controllability/observability) plus a bounded-cost cut-width
// estimate of its sub-circuit, classified into an effort class, and
// routed to the cheapest backend likely to decide it:
//
//	trivial    → fault-sim first: scheduled last so vectors committed by
//	             the other backends drop it for free; survivors go
//	             through PODEM.
//	low-width  → the Algorithm-1 caching backtracker (poly-time on
//	             bounded cut-width — the paper's own solver).
//	structural → the PODEM structural backend (internal/podem), with a
//	             deterministic backtrack cap and a CDCL fallback.
//	hard       → incremental region-grouped CDCL with a budget scaled
//	             up by RouteHardScale.
//
// Routing is deterministic: classes derive only from circuit structure,
// and routed dispatch commits through the same serial frontier as the
// unrouted engine, so routed runs are byte-identical at any worker
// count.

import (
	"sort"
	"sync"

	"atpgeasy/internal/hypergraph"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/mla"
)

// EffortClass is the router's per-fault effort prediction, ordered from
// cheapest to hardest.
type EffortClass int8

// Effort classes. The order matters: retry-tier escalation bumps a
// fault's class one step toward ClassHard per tier.
const (
	ClassTrivial EffortClass = iota
	ClassLowWidth
	ClassStructural
	ClassHard
)

// String returns the class name as it appears in effort records and the
// JSON run summary.
func (c EffortClass) String() string {
	switch c {
	case ClassTrivial:
		return "trivial"
	case ClassLowWidth:
		return "low-width"
	case ClassStructural:
		return "structural"
	default:
		return "hard"
	}
}

// Routing thresholds. Tuned on mult16/rand200: generous enough that the
// caching backtracker only sees sub-circuits in its poly-time regime and
// PODEM only sees cones where structural search tends to beat CNF
// translation.
const (
	// routeTrivialGates: sub-circuits at or below this gate count are
	// almost always decided by the random-pattern pre-phase or dropped
	// by fault simulation of other backends' vectors.
	routeTrivialGates = 16
	// routeLowWidth: the paper's bounded-cut-width regime where
	// Algorithm 1 (sat.Caching) is polynomial.
	routeLowWidth = 8
	// routeHardWidth / routeHardGates: an oversized sub-circuit — or a
	// wide one past the structural sweet spot — goes to the grouped
	// incremental CDCL backend with a scaled budget.
	routeHardWidth = 24
	routeHardGates = 2048
	// routeStructuralGates: up to this sub-circuit size PODEM's
	// event-driven search beats CNF translation even on wide cones
	// (measured on mult16, whose ~1.4k-gate sub-circuits it decides in
	// ~0.8ms against the incremental backend's ~1.4ms) — and the
	// deterministic backtrack cap bounds the cost of any misprediction.
	// Past it, width decides: narrow cones stay structural, wide ones
	// escalate to the grouped CDCL backend.
	routeStructuralGates = 1536
)

// DefaultRouteWidthMax is the sub-circuit node count above which the
// router never refines its cut-width estimate with the MLA layout
// heuristic and keeps the topological-order upper bound instead —
// O(pins) — bounding the routing cost per fault.
const DefaultRouteWidthMax = 128

// DefaultRouteHardScale scales PerFaultBudget for ClassHard faults.
const DefaultRouteHardScale = 4.0

// DefaultPodemMaxBacktracks caps the PODEM search; a cap abort is
// deterministic, so the CDCL fallback it triggers is deterministic too.
// Deliberately tight: most structural detections land in a handful of
// backtracks (the paper's easiness, seen from the circuit side), and a
// fault that thrashes past the cap is decided faster by handing the
// remainder to CDCL than by letting PODEM exhaust the cone.
const DefaultPodemMaxBacktracks = 128

// widthEstimator computes a fault's cut-width estimate with reused
// mark/stack buffers, one instance per routing shard. The base estimate
// is the cut-width of the sub-circuit's topological arrangement — an
// upper bound computed directly on the parent circuit in one pass over
// the sub-circuit's pins, with no induced-circuit or hypergraph
// allocation (parent node IDs are topological, so sorting the
// sub-circuit's IDs is that arrangement). Only when the cheap bound
// lands in the ambiguous band between the low-width and hard thresholds
// — the one place a tighter number changes the class — and the
// sub-circuit is small enough (≤ widthMax nodes) is it refined with the
// MLA layout heuristic used elsewhere in the repo. Everything outside
// the band is classified from the cheap bound alone, keeping routing
// cost O(cone) per fault.
type widthEstimator struct {
	c     *logic.Circuit
	mark  []int
	stamp int
	stack []int
	sub   []int   // the fault's sub-circuit node IDs, ascending
	pos   []int32 // parent ID -> position in sub (valid when marked)
	diff  []int32 // cut-profile difference array over positions
}

func newWidthEstimator(c *logic.Circuit) *widthEstimator {
	return &widthEstimator{
		c:    c,
		mark: make([]int, len(c.Nodes)),
		pos:  make([]int32, len(c.Nodes)),
	}
}

// estimate returns the fault's cut-width estimate, or -1 when it cannot
// be computed. The estimate is the same quantity routeWidth's old
// SubCircuit path measured: the identity(topological)-order cut-width of
// the fanin of the fault's fanout cone.
func (x *widthEstimator) estimate(f Fault, widthMax int) int32 {
	c := x.c
	// Fanout cone, then the fanin closure over it — the sub-circuit the
	// miter is built from (same walk as featureExtractor.extract).
	x.stamp++
	x.sub = append(x.sub[:0], f.Net)
	x.mark[f.Net] = x.stamp
	x.stack = append(x.stack[:0], f.Net)
	for len(x.stack) > 0 {
		n := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		for _, o := range c.Nodes[n].Fanout {
			if x.mark[o] != x.stamp {
				x.mark[o] = x.stamp
				x.sub = append(x.sub, o)
				x.stack = append(x.stack, o)
			}
		}
	}
	for _, n := range x.sub {
		x.stack = append(x.stack, c.Nodes[n].Fanin...)
	}
	for len(x.stack) > 0 {
		n := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		if x.mark[n] == x.stamp {
			continue
		}
		x.mark[n] = x.stamp
		x.sub = append(x.sub, n)
		x.stack = append(x.stack, c.Nodes[n].Fanin...)
	}
	sort.Ints(x.sub)
	for p, id := range x.sub {
		x.pos[id] = int32(p)
	}

	// Cut profile of the topological arrangement: each driver net spans
	// from its own position to its furthest in-sub consumer (consumers
	// have higher IDs, so the driver is the span's left end). The cut
	// between positions k-1 and k counts the spans with start < k ≤ end.
	n := len(x.sub)
	if cap(x.diff) < n+1 {
		x.diff = make([]int32, n+1)
	}
	x.diff = x.diff[:n+1]
	for i := range x.diff {
		x.diff[i] = 0
	}
	for p, id := range x.sub {
		maxSink := int32(-1)
		for _, o := range c.Nodes[id].Fanout {
			if x.mark[o] == x.stamp && x.pos[o] > maxSink {
				maxSink = x.pos[o]
			}
		}
		if maxSink > int32(p) {
			x.diff[p+1]++
			x.diff[maxSink+1]--
		}
	}
	w := int32(0)
	cur := int32(0)
	for k := 1; k < n; k++ {
		cur += x.diff[k]
		if cur > w {
			w = cur
		}
	}

	if w > routeLowWidth && w < routeHardWidth && n <= widthMax {
		// Ambiguous band: the cheap upper bound may be hiding a genuinely
		// low-width sub-circuit — worth one bounded MLA layout search.
		if sub, err := SubCircuit(c, f); err == nil {
			g := hypergraph.FromCircuit(sub.Circuit)
			if mw, _ := mla.EstimateCutWidth(g, mla.Options{}); int32(mw) < w {
				w = int32(mw)
			}
		}
	}
	return w
}

// widthNeeded reports whether classification actually depends on the
// width estimate: gate count alone decides the trivial and oversized
// classes, so their faults skip the sub-circuit walk entirely.
func widthNeeded(ft FaultFeatures) bool {
	return ft.Gates > routeTrivialGates && ft.Gates < routeHardGates
}

// classifyFault maps one fault's features and width estimate to a class.
// Pure function of structure — scheduling never feeds back into it.
func classifyFault(ft FaultFeatures, width int32) EffortClass {
	if ft.Gates <= routeTrivialGates {
		return ClassTrivial
	}
	if ft.Gates >= routeHardGates {
		return ClassHard
	}
	if width >= 0 && width <= routeLowWidth {
		return ClassLowWidth
	}
	if ft.Gates <= routeStructuralGates {
		return ClassStructural
	}
	if width >= routeHardWidth {
		return ClassHard
	}
	return ClassStructural
}

// classifyFaults scores and classifies every live fault (sharded over
// workers goroutines); faults in skip keep the zero class and are never
// laid out. planDispatch turns the classes into the routed dispatch
// order.
func classifyFaults(c *logic.Circuit, faults []Fault, skip []bool, feats []FaultFeatures, widthMax, workers int) []EffortClass {
	if widthMax <= 0 {
		widthMax = DefaultRouteWidthMax
	}
	class := make([]EffortClass, len(faults))
	if workers < 1 {
		workers = 1
	}
	if workers > len(faults) {
		workers = len(faults)
	}
	var wg sync.WaitGroup
	chunk := (len(faults) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(faults) {
			break
		}
		hi := min(lo+chunk, len(faults))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			x := newWidthEstimator(c)
			// The two faults of a net (sa0/sa1) share a sub-circuit, and
			// fault lists keep them adjacent, so a per-shard memo halves
			// the width work.
			netWidth := make(map[int]int32)
			for i := lo; i < hi; i++ {
				if skip != nil && skip[i] {
					continue
				}
				w := int32(-1)
				if widthNeeded(feats[i]) {
					var ok bool
					if w, ok = netWidth[faults[i].Net]; !ok {
						w = x.estimate(faults[i], widthMax)
						netWidth[faults[i].Net] = w
					}
				}
				class[i] = classifyFault(feats[i], w)
			}
		}(lo, hi)
	}
	wg.Wait()
	return class
}

// RouteSummary reports the routed run's class and backend tallies in the
// JSON run summary (map keys sort on encoding, so output is stable).
type RouteSummary struct {
	// Classes counts live faults per predicted effort class.
	Classes map[string]int `json:"classes"`
	// Backends counts decided faults per backend that decided them:
	// podem, caching, cdcl, or faultsim (dropped without solving).
	Backends map[string]int `json:"backends"`
}

// routeSummary tallies the routed sweep plan's live faults by class and
// the decided results by backend; faults the flushes dropped count
// under faultsim.
func (st *runState) routeSummary() *RouteSummary {
	rs := &RouteSummary{Classes: make(map[string]int), Backends: make(map[string]int)}
	for _, i := range st.plan.order {
		rs.Classes[st.plan.class[i].String()]++
	}
	for _, r := range st.results {
		if r != nil && r.Backend != "" {
			rs.Backends[r.Backend]++
		}
	}
	if n := int(st.droppedN.Load()); n > 0 {
		rs.Backends[backendFaultSim] = n
	}
	return rs
}

// escalate bumps a class up tier steps for retry-tier re-routing.
func (c EffortClass) escalate(tiers int) EffortClass {
	e := int(c) + tiers
	if e > int(ClassHard) {
		e = int(ClassHard)
	}
	return EffortClass(e)
}
