package atpg

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"atpgeasy/internal/gen"
	"atpgeasy/internal/hypergraph"
	"atpgeasy/internal/logic"
	"atpgeasy/internal/podem"
	"atpgeasy/internal/sat"
)

func TestClassifyFault(t *testing.T) {
	cases := []struct {
		name  string
		gates int32
		width int32
		want  EffortClass
	}{
		{"tiny cone", routeTrivialGates, 3, ClassTrivial},
		{"tiny cone ignores width", routeTrivialGates - 1, 100, ClassTrivial},
		{"narrow", routeTrivialGates + 1, routeLowWidth, ClassLowWidth},
		{"narrow mid-size", routeStructuralGates, routeLowWidth, ClassLowWidth},
		{"moderate width", 100, routeLowWidth + 1, ClassStructural},
		{"wide but structural-size", routeStructuralGates, 256, ClassStructural},
		{"wide past structural size", routeStructuralGates + 1, routeHardWidth, ClassHard},
		{"narrowish past structural size", routeStructuralGates + 1, routeHardWidth - 1, ClassStructural},
		{"oversized", routeHardGates, 3, ClassHard},
		{"no width estimate", 100, -1, ClassStructural},
		{"no width estimate oversized", routeHardGates + 7, -1, ClassHard},
	}
	for _, tc := range cases {
		ft := FaultFeatures{Gates: tc.gates}
		if got := classifyFault(ft, tc.width); got != tc.want {
			t.Errorf("%s (gates=%d width=%d): class %v, want %v", tc.name, tc.gates, tc.width, got, tc.want)
		}
	}
}

// TestWidthEstimatorMatchesHypergraph: the estimator's cheap bound must
// equal the cut-width of the sub-circuit's topological (identity)
// arrangement as the hypergraph layer measures it — same quantity, no
// induced circuit built.
func TestWidthEstimatorMatchesHypergraph(t *testing.T) {
	for name, c := range map[string]*logic.Circuit{
		"rand": gen.Random(gen.RandomParams{Inputs: 10, Gates: 60, Seed: 7}),
		"cla":  gen.CarryLookaheadAdder(4),
		"mult": gen.ArrayMultiplier(3),
	} {
		faults := Collapse(c, AllFaults(c))
		x := newWidthEstimator(c)
		for _, f := range faults {
			got := x.estimate(f, 0) // widthMax 0: never refine via MLA
			sub, err := SubCircuit(c, f)
			if err != nil {
				t.Fatalf("%s %s: %v", name, f.Name(c), err)
			}
			g := hypergraph.FromCircuit(sub.Circuit)
			order := make([]int, g.NumNodes)
			for i := range order {
				order[i] = i
			}
			want, err := g.CutWidth(order)
			if err != nil {
				t.Fatalf("%s %s: %v", name, f.Name(c), err)
			}
			if int(got) != want {
				t.Errorf("%s %s: estimator width %d, hypergraph says %d", name, f.Name(c), got, want)
			}
		}
	}
}

// routedRun is a helper running the routed portfolio engine.
func routedRun(t *testing.T, c *logic.Circuit, workers int, opt RunOptions) *Summary {
	t.Helper()
	e := &Engine{VerifyTests: true, Workers: workers}
	sum, err := e.Run(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestRoutedByteIdenticalAcrossWorkers: a routed run must be
// byte-identical to itself at any worker count — same statuses, same
// vectors, same class and backend tallies. Same property for the
// unrouted run on the same circuit (the pre-existing engine guarantee,
// re-checked here side by side).
func TestRoutedByteIdenticalAcrossWorkers(t *testing.T) {
	c := gen.Random(gen.RandomParams{Inputs: 12, Gates: 120, Seed: 3})
	for _, route := range []bool{true, false} {
		opt := RunOptions{Collapse: true, Route: route}
		one := routedRun(t, c, 1, opt)
		four := routedRun(t, c, 4, opt)
		if len(one.Results) != len(four.Results) {
			t.Fatalf("route=%v: %d vs %d results", route, len(one.Results), len(four.Results))
		}
		for i := range one.Results {
			a, b := one.Results[i], four.Results[i]
			if a.Fault != b.Fault || a.Status != b.Status {
				t.Errorf("route=%v: fault %d: (%v,%v) vs (%v,%v)", route, i, a.Fault, a.Status, b.Fault, b.Status)
			}
			if !reflect.DeepEqual(a.Vector, b.Vector) {
				t.Errorf("route=%v: fault %s: vectors differ across worker counts:\n  1: %v\n  4: %v",
					route, a.Fault.Name(c), a.Vector, b.Vector)
			}
			if route && a.Backend != b.Backend {
				t.Errorf("route=%v: fault %s: backend %q vs %q", route, a.Fault.Name(c), a.Backend, b.Backend)
			}
		}
		if route {
			if one.Routed == nil || four.Routed == nil {
				t.Fatalf("routed run missing route summary: %v / %v", one.Routed, four.Routed)
			}
			if !reflect.DeepEqual(one.Routed, four.Routed) {
				t.Errorf("route summaries differ across worker counts:\n  1: %+v\n  4: %+v", one.Routed, four.Routed)
			}
		} else if one.Routed != nil || four.Routed != nil {
			t.Errorf("unrouted run reported a route summary")
		}
	}
}

// TestRoutedMatchesUnroutedVerdicts: routing changes who decides a
// fault, never what is decided — per-fault statuses and coverage match
// the unrouted engine exactly (vectors may legitimately differ between
// backends; VerifyTests checks each one independently). The second
// routed configuration caps PODEM at one backtrack, so many structural
// faults take the cap-abort fallback onto the one-shot CDCL solver.
func TestRoutedMatchesUnroutedVerdicts(t *testing.T) {
	for name, c := range map[string]*logic.Circuit{
		"rand": gen.Random(gen.RandomParams{Inputs: 12, Gates: 120, Seed: 5}),
		"cla":  gen.CarryLookaheadAdder(4),
		"mult": gen.ArrayMultiplier(4),
	} {
		unrouted := routedRun(t, c, 1, RunOptions{Collapse: true})
		for _, maxBT := range []int64{0, 1} {
			routed := routedRun(t, c, 1, RunOptions{Collapse: true, Route: true, PodemMaxBacktracks: maxBT})
			if len(unrouted.Results) != len(routed.Results) {
				t.Fatalf("%s maxBT=%d: %d vs %d results", name, maxBT, len(unrouted.Results), len(routed.Results))
			}
			fallbacks := 0
			for i := range unrouted.Results {
				a, b := unrouted.Results[i], routed.Results[i]
				if a.Fault != b.Fault || a.Status != b.Status {
					t.Errorf("%s maxBT=%d: fault %s: status %v unrouted, %v routed (backend %s)",
						name, maxBT, a.Fault.Name(c), a.Status, b.Status, b.Backend)
				}
				if b.Backend == backendCDCL && b.Group == 0 {
					fallbacks++
				}
			}
			if maxBT == 1 && fallbacks == 0 {
				t.Errorf("%s: no fault took the PODEM cap-abort CDCL fallback at one backtrack", name)
			}
			if unrouted.Coverage() != routed.Coverage() {
				t.Errorf("%s maxBT=%d: coverage %v unrouted, %v routed", name, maxBT, unrouted.Coverage(), routed.Coverage())
			}
			// The routed tallies must cover every live fault.
			total := 0
			for _, n := range routed.Routed.Backends {
				total += n
			}
			if total != routed.Total {
				t.Errorf("%s maxBT=%d: backend tallies sum to %d, want %d", name, maxBT, total, routed.Total)
			}
		}
	}
}

// TestRouteRequiresDPLL: routing needs the DPLL solver family (the hard
// class and PODEM's fallback are CDCL solves), so a run asking for it on
// any other solver is refused up front rather than silently run
// unrouted or on a different solver.
func TestRouteRequiresDPLL(t *testing.T) {
	c := gen.CarryLookaheadAdder(2)
	for name, solver := range map[string]sat.Solver{
		"simple":           &sat.Simple{},
		"caching":          &sat.Caching{},
		"dpll-no-learning": &sat.DPLL{DisableLearning: true},
	} {
		e := &Engine{Solver: solver, Workers: 1}
		sum, err := e.Run(context.Background(), c, RunOptions{Collapse: true, Route: true})
		if err == nil || !strings.Contains(err.Error(), "Route requires the DPLL solver") {
			t.Errorf("%s: err = %v, want the DPLL-family error", name, err)
		}
		if sum != nil {
			t.Errorf("%s: refused run returned a summary", name)
		}
	}
	for name, solver := range map[string]sat.Solver{"nil": nil, "dpll": &sat.DPLL{}} {
		e := &Engine{Solver: solver, Workers: 1}
		sum, err := e.Run(context.Background(), c, RunOptions{Collapse: true, Route: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum.Routed == nil || sum.Coverage() != 1 {
			t.Errorf("%s: routed %v, coverage %v", name, sum.Routed, sum.Coverage())
		}
	}
}

// TestRoutedWithDropsAndRPT exercises the routed engine in the CLI's
// usual configuration — RPT pre-phase plus fault dropping — where the
// trivial class is deliberately scheduled last so committed vectors
// drop it for free, and clean drops are tallied under the faultsim
// backend.
func TestRoutedWithDropsAndRPT(t *testing.T) {
	c := gen.ArrayMultiplier(4)
	sum := routedRun(t, c, 2, RunOptions{
		Collapse: true, Route: true,
		DropDetected: true, RPTBatches: DefaultRPTBatches,
	})
	if sum.Coverage() != 1 {
		t.Fatalf("coverage %v", sum.Coverage())
	}
	if sum.Routed == nil {
		t.Fatal("no route summary")
	}
	total := 0
	for _, n := range sum.Routed.Backends {
		total += n
	}
	// RPT-detected faults never reach the backends; everything else must
	// be tallied exactly once (solved or cleanly dropped).
	if want := sum.Total - sum.DetectedByRPT; total != want {
		t.Errorf("backend tallies sum to %d, want %d (total %d − rpt %d)",
			total, want, sum.Total, sum.DetectedByRPT)
	}
	if sum.DroppedByFaultSim > 0 && sum.Routed.Backends[backendFaultSim] != sum.DroppedByFaultSim {
		t.Errorf("faultsim tally %d, dropped %d", sum.Routed.Backends[backendFaultSim], sum.DroppedByFaultSim)
	}
}

// TestPodemAgreesWithCDCL: the structural backend and the CDCL backend
// must return the same verdict for every fault, and every PODEM pattern
// must detect its fault under any X fill — the X-compatibility half of
// the portfolio's interchangeability contract.
func TestPodemAgreesWithCDCL(t *testing.T) {
	for name, c := range map[string]*logic.Circuit{
		"rand": gen.Random(gen.RandomParams{Inputs: 10, Gates: 60, Seed: 7}),
		"cla":  gen.CarryLookaheadAdder(4),
		"mult": gen.ArrayMultiplier(3),
	} {
		cdcl := routedRun(t, c, 1, RunOptions{Collapse: true})
		sc := ComputeScoap(c)
		for _, res := range cdcl.Results {
			f := res.Fault
			pr := podem.Run(c, f.Net, f.StuckAt, podem.Options{CC0: sc.CC0, CC1: sc.CC1})
			var want podem.Status
			switch res.Status {
			case Detected:
				want = podem.Detected
			case Untestable:
				want = podem.Untestable
			default:
				continue
			}
			if pr.Status != want {
				t.Errorf("%s %s: podem says %v, cdcl says %v", name, f.Name(c), pr.Status, res.Status)
				continue
			}
			if pr.Status != podem.Detected {
				continue
			}
			for _, fill := range []bool{false, true} {
				if !VerifyTest(c, f, pr.Vector(fill)) {
					t.Errorf("%s %s: podem pattern with fill=%v misses the fault", name, f.Name(c), fill)
				}
			}
		}
	}
}
