package experiments

import (
	"fmt"
	"io"

	"atpgeasy/internal/atpg"
	"atpgeasy/internal/cnf"
	"atpgeasy/internal/core"
	"atpgeasy/internal/hypergraph"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/mla"
	"atpgeasy/internal/sat"
)

// WorkedResult reproduces the Section 4 worked example: Formula 4.1
// (Figure 4(a)), the caching-backtracking run under ordering A (Figure
// 5), the cut profile of orderings A and a bad ordering (Figure 6), and
// the derived miter ordering A' for the stuck-at-1 fault on f (Figures
// 4(b) and 7).
type WorkedResult struct {
	Formula      string
	CachingStats sat.Stats
	SimpleStats  sat.Stats
	SatStatus    sat.Status
	TestVector   []bool

	ProfileA  []int
	WidthA    int
	WidthBadB int
	WidthMin  int

	MiterWidth  int
	MiterBound  int
	ATPGStatus  atpg.Status
	ATPGVector  []bool
	NotQHornRef bool
}

// WorkedExample runs the Section 4 walkthrough end to end.
func WorkedExample(cfg Config) (*WorkedResult, error) {
	c := logic.Figure4a()
	f, err := cnf.FromCircuit(c, nil)
	if err != nil {
		return nil, err
	}
	res := &WorkedResult{}
	var sb []byte
	for i, cl := range f.Clauses {
		if i > 0 {
			sb = append(sb, ' ')
		}
		sb = append(sb, f.PrettyClause(cl)...)
	}
	res.Formula = string(sb)

	orderA := logic.Figure4aOrderingA(c)
	cSol := (&sat.Caching{Order: orderA}).Solve(f)
	sSol := (&sat.Simple{Order: orderA}).Solve(f)
	res.CachingStats = cSol.Stats
	res.SimpleStats = sSol.Stats
	res.SatStatus = cSol.Status
	if cSol.Status == sat.Sat {
		res.TestVector = make([]bool, len(c.Inputs))
		for i, in := range c.Inputs {
			res.TestVector[i] = cSol.Model[in]
		}
	}

	g := hypergraph.FromCircuit(c)
	res.ProfileA, err = g.CutProfile(orderA)
	if err != nil {
		return nil, err
	}
	res.WidthA, _ = g.CutWidth(orderA)
	// Ordering B of Figure 6: a deliberately interleaved bad ordering.
	badB := []int{
		c.MustLookup("a"), c.MustLookup("d"), c.MustLookup("f"),
		c.MustLookup("g"), c.MustLookup("b"), c.MustLookup("e"),
		c.MustLookup("h"), c.MustLookup("c"), c.MustLookup("i"),
	}
	res.WidthBadB, _ = g.CutWidth(badB)
	_, res.WidthMin, err = mla.ExactOrder(g)
	if err != nil {
		return nil, err
	}

	fault := atpg.Fault{Net: c.MustLookup("f"), StuckAt: true}
	m, err := atpg.NewMiter(c, fault)
	if err != nil {
		return nil, err
	}
	mOrder, err := core.MiterOrdering(m, orderA)
	if err != nil {
		return nil, err
	}
	gm := hypergraph.FromCircuit(m.Circuit)
	res.MiterWidth, err = gm.CutWidth(mOrder)
	if err != nil {
		return nil, err
	}
	res.MiterBound = core.Lemma42Bound(res.WidthA)

	eng := &atpg.Engine{}
	ar, err := eng.TestFault(c, fault)
	if err != nil {
		return nil, err
	}
	res.ATPGStatus = ar.Status
	res.ATPGVector = ar.Vector
	return res, nil
}

// Render prints the worked-example report.
func (r *WorkedResult) Render(w io.Writer) error {
	hr(w, "Figures 4–7 — the Section 4 worked example")
	fmt.Fprintf(w, "Formula 4.1 from the Figure 4(a) circuit:\n  %s\n", r.Formula)
	fmt.Fprintf(w, "CIRCUIT-SAT under ordering A = b,c,f,a,h,d,e,g,i: %v\n", r.SatStatus)
	fmt.Fprintf(w, "  caching backtracking (Algorithm 1): %d nodes, %d cache hits, %d cached sub-formulas\n",
		r.CachingStats.Nodes, r.CachingStats.CacheHits, r.CachingStats.CacheEntries)
	fmt.Fprintf(w, "  simple backtracking:                %d nodes\n", r.SimpleStats.Nodes)
	if r.TestVector != nil {
		fmt.Fprintf(w, "  satisfying input vector (a,b,c,d,e): %v\n", r.TestVector)
	}
	fmt.Fprintf(w, "Figure 6: cut profile under A = %v → W(C,A) = %d; interleaved ordering W = %d; exact W_min = %d\n",
		r.ProfileA, r.WidthA, r.WidthBadB, r.WidthMin)
	fmt.Fprintf(w, "Figure 7: miter ordering A' gives W(C_ψ^ATPG, A') = %d ≤ 2·W+2 = %d (paper reports 4)\n",
		r.MiterWidth, r.MiterBound)
	fmt.Fprintf(w, "ATPG for f stuck-at-1: %v", r.ATPGStatus)
	if r.ATPGVector != nil {
		fmt.Fprintf(w, ", test vector (a,b,c,d,e) = %v", r.ATPGVector)
	}
	fmt.Fprintln(w)
	return nil
}
